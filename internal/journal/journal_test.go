package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// appendN appends n single-sequence records starting at first, payload
// derived from the sequence so reads can verify content.
func appendN(t *testing.T, j *Journal, first uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := first + uint64(i)
		if err := j.Append(Record{First: seq, Last: seq, Data: payloadFor(seq)}); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
}

func payloadFor(seq uint64) []byte { return []byte(fmt.Sprintf("batch-%d", seq)) }

func openT(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	if got := j.Tail(); got != 0 {
		t.Fatalf("empty Tail = %d", got)
	}
	if recs, err := j.ReadFrom(0, 0); err != nil || recs != nil {
		t.Fatalf("empty ReadFrom = %v, %v", recs, err)
	}

	// Multi-event batch records, like the store's coalesced batches.
	if err := j.Append(Record{First: 1, Last: 3, Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{First: 4, Last: 4, Data: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if got := j.Tail(); got != 4 {
		t.Fatalf("Tail = %d, want 4", got)
	}

	recs, err := j.ReadFrom(0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("ReadFrom(0) = %d recs, %v", len(recs), err)
	}
	if recs[0].First != 1 || recs[0].Last != 3 || !bytes.Equal(recs[0].Data, []byte("a")) {
		t.Fatalf("rec[0] = %+v", recs[0])
	}
	// after=2 falls inside the first record's range: the record still
	// returns (it contains events > 2).
	recs, err = j.ReadFrom(2, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("ReadFrom(2) = %d recs, %v", len(recs), err)
	}
	recs, err = j.ReadFrom(3, 0)
	if err != nil || len(recs) != 1 || recs[0].First != 4 {
		t.Fatalf("ReadFrom(3) = %+v, %v", recs, err)
	}
	if recs, err = j.ReadFrom(4, 0); err != nil || recs != nil {
		t.Fatalf("caught-up ReadFrom = %v, %v", recs, err)
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	appendN(t, j, 1, 3)
	if err := j.Append(Record{First: 2, Last: 5}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("overlapping append err = %v", err)
	}
	if err := j.Append(Record{First: 0, Last: 0}); err == nil {
		t.Fatal("zero-sequence append accepted")
	}
	// Gaps are tolerated (the producer may skip sequences it never
	// journals), only regressions are rejected.
	if err := j.Append(Record{First: 10, Last: 12}); err != nil {
		t.Fatalf("gapped append: %v", err)
	}
	if got := j.Tail(); got != 12 {
		t.Fatalf("Tail = %d", got)
	}
}

// Reset discards every record — behind the new position and past it —
// and the journal resumes at exactly that position, across a reopen too.
func TestResetRestartsAtPosition(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{SegmentBytes: 48})
	appendN(t, j, 1, 24)
	if err := j.Reset(12); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if oldest, tail, segs := j.Stats(); oldest != 13 || tail != 12 || segs != 1 {
		t.Fatalf("Stats after Reset = (%d, %d, %d), want (13, 12, 1)", oldest, tail, segs)
	}
	if recs, err := j.ReadFrom(12, 0); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(12) = %d recs, %v; want caught up", len(recs), err)
	}
	if _, err := j.ReadFrom(5, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom(5) err = %v, want ErrCompacted", err)
	}
	// The records past the position are gone: sequence 13 is free again.
	appendN(t, j, 13, 2)
	recs, err := j.ReadFrom(12, 0)
	if err != nil || len(recs) != 2 || recs[0].First != 13 || !bytes.Equal(recs[0].Data, payloadFor(13)) {
		t.Fatalf("ReadFrom(12) after append = %+v, %v", recs, err)
	}
	j.Close()
	re := openT(t, dir, Options{SegmentBytes: 48})
	if oldest, tail, _ := re.Stats(); oldest != 13 || tail != 14 {
		t.Fatalf("reopened Stats = (%d, %d), want (13, 14)", oldest, tail)
	}
	// An empty reset journal keeps its position across a reopen.
	if err := re.Reset(40); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	re.Close()
	if got := openT(t, dir, Options{SegmentBytes: 48}).Tail(); got != 40 {
		t.Fatalf("reopened Tail after empty Reset = %d, want 40", got)
	}
}

// TestCrashRecovery is the table test of torn-tail scenarios: each case
// mangles the newest segment and expects recovery to truncate at the
// last good record and keep appending cleanly.
func TestCrashRecovery(t *testing.T) {
	cases := []struct {
		name string
		// mangle receives the active segment path after 5 appends (seqs 1-5).
		mangle   func(t *testing.T, path string)
		wantTail uint64
	}{
		{
			name:     "clean shutdown",
			mangle:   func(t *testing.T, path string) {},
			wantTail: 5,
		},
		{
			name: "torn header",
			mangle: func(t *testing.T, path string) {
				// Each record is 8 bytes of header + ~9 of payload;
				// cutting 12 leaves a partial header for the final one.
				truncateBy(t, path, 12)
			},
			wantTail: 4,
		},
		{
			name: "torn payload",
			mangle: func(t *testing.T, path string) {
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				// Leave the final record's header intact but cut its payload.
				if err := os.Truncate(path, info.Size()-1); err != nil {
					t.Fatal(err)
				}
			},
			wantTail: 4,
		},
		{
			name: "corrupt final payload",
			mangle: func(t *testing.T, path string) {
				flipLastByte(t, path)
			},
			wantTail: 4,
		},
		{
			name: "all records torn",
			mangle: func(t *testing.T, path string) {
				if err := os.Truncate(path, 2); err != nil {
					t.Fatal(err)
				}
			},
			wantTail: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openT(t, dir, Options{})
			appendN(t, j, 1, 5)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			names := segFiles(t, dir)
			if len(names) != 1 {
				t.Fatalf("segments = %v", names)
			}
			tc.mangle(t, filepath.Join(dir, names[0]))

			re := openT(t, dir, Options{})
			if got := re.Tail(); got != tc.wantTail {
				t.Fatalf("recovered Tail = %d, want %d", got, tc.wantTail)
			}
			recs, err := re.ReadFrom(0, 0)
			if err != nil {
				t.Fatalf("ReadFrom after recovery: %v", err)
			}
			if len(recs) != int(tc.wantTail) {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.wantTail)
			}
			for i, rec := range recs {
				want := payloadFor(uint64(i + 1))
				if !bytes.Equal(rec.Data, want) {
					t.Fatalf("rec[%d].Data = %q, want %q", i, rec.Data, want)
				}
			}
			// The journal must accept appends continuing from the
			// recovered tail — the restart scenario.
			next := tc.wantTail + 1
			if err := re.Append(Record{First: next, Last: next, Data: payloadFor(next)}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if got := re.Tail(); got != next {
				t.Fatalf("Tail after post-recovery append = %d, want %d", got, next)
			}
		})
	}
}

// TestCorruptInteriorRecordUnreachable: a flipped bit mid-file makes
// everything after it unreachable (truncate-on-recovery semantics).
func TestCorruptInteriorRecordUnreachable(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	appendN(t, j, 1, 5)
	j.Close()
	path := filepath.Join(dir, segFiles(t, dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{})
	if got := re.Tail(); got >= 5 {
		t.Fatalf("Tail = %d after interior corruption", got)
	}
	recs, err := re.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if !bytes.Equal(rec.Data, payloadFor(rec.First)) {
			t.Fatalf("surviving record %d corrupted: %q", rec.First, rec.Data)
		}
	}
}

func TestSegmentRotationAndReadAcrossBoundaries(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates after roughly two appends.
	j := openT(t, dir, Options{SegmentBytes: 48, Retain: 1000})
	appendN(t, j, 1, 40)
	if files := segFiles(t, dir); len(files) < 3 {
		t.Fatalf("expected multiple segments, got %v", files)
	}
	// Full scan crosses every boundary.
	recs, err := j.ReadFrom(0, 0)
	if err != nil || len(recs) != 40 {
		t.Fatalf("ReadFrom(0) = %d, %v", len(recs), err)
	}
	for i, rec := range recs {
		if rec.First != uint64(i+1) || !bytes.Equal(rec.Data, payloadFor(rec.First)) {
			t.Fatalf("rec[%d] = %+v", i, rec)
		}
	}
	// Mid-journal reads start in the right segment.
	for _, after := range []uint64{5, 17, 23, 39} {
		recs, err := j.ReadFrom(after, 0)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", after, err)
		}
		if len(recs) != int(40-after) || recs[0].First != after+1 {
			t.Fatalf("ReadFrom(%d) = %d recs starting %d", after, len(recs), recs[0].First)
		}
	}
	// max bounds the batch.
	recs, err = j.ReadFrom(0, 7)
	if err != nil || len(recs) != 7 {
		t.Fatalf("bounded ReadFrom = %d, %v", len(recs), err)
	}

	// Reopen after rotation: tail recovers from the newest segment.
	j.Close()
	re := openT(t, dir, Options{SegmentBytes: 48, Retain: 1000})
	if got := re.Tail(); got != 40 {
		t.Fatalf("reopened Tail = %d", got)
	}
	recs, err = re.ReadFrom(20, 0)
	if err != nil || len(recs) != 20 {
		t.Fatalf("reopened ReadFrom(20) = %d, %v", len(recs), err)
	}
}

func TestRetentionDropsOldSegmentsAndReportsCompacted(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{SegmentBytes: 48, Retain: 2})
	appendN(t, j, 1, 60)
	files := segFiles(t, dir)
	if len(files) > 3 { // active + 2 retained
		t.Fatalf("retention kept %d segments: %v", len(files), files)
	}
	oldest, tail, segs := j.Stats()
	if tail != 60 || oldest <= 1 || segs != len(files) {
		t.Fatalf("Stats = (%d, %d, %d)", oldest, tail, segs)
	}
	if _, err := j.ReadFrom(0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom(0) err = %v, want ErrCompacted", err)
	}
	// Reads at or past the horizon still work.
	recs, err := j.ReadFrom(oldest-1, 0)
	if err != nil {
		t.Fatalf("ReadFrom(horizon): %v", err)
	}
	if len(recs) == 0 || recs[0].First != oldest {
		t.Fatalf("horizon read starts at %d, want %d", recs[0].First, oldest)
	}
	// Reopen keeps the horizon.
	j.Close()
	re := openT(t, dir, Options{SegmentBytes: 48, Retain: 2})
	if got := re.Oldest(); got != oldest {
		t.Fatalf("reopened Oldest = %d, want %d", got, oldest)
	}
}

// Sequential paged tailing — the follower pattern the read cursor
// optimizes — must return exactly the full-scan record stream, across
// rotations and interleaved appends.
func TestSequentialPagedTailing(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{SegmentBytes: 64, Retain: 1000})
	appendN(t, j, 1, 30)

	var got []Record
	after := uint64(0)
	for {
		recs, err := j.ReadFrom(after, 4)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", after, err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
		after = recs[len(recs)-1].Last
		// Interleave appends mid-tail to exercise cursor-at-live-end.
		if after == 12 {
			appendN(t, j, 31, 5)
		}
	}
	if len(got) != 35 {
		t.Fatalf("paged tail returned %d records, want 35", len(got))
	}
	for i, rec := range got {
		if rec.First != uint64(i+1) || !bytes.Equal(rec.Data, payloadFor(rec.First)) {
			t.Fatalf("paged rec[%d] = %+v", i, rec)
		}
	}
	// A non-sequential read (cursor miss) still answers correctly.
	recs, err := j.ReadFrom(10, 0)
	if err != nil || len(recs) != 25 || recs[0].First != 11 {
		t.Fatalf("cursor-miss ReadFrom(10) = %d recs, %v", len(recs), err)
	}
}

func TestWaitFrom(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	appendN(t, j, 1, 1)

	// Data already present: returns immediately.
	if !j.WaitFrom(nil, 0) {
		t.Fatal("WaitFrom(0) with data = false")
	}

	got := make(chan bool, 1)
	go func() { got <- j.WaitFrom(nil, 1) }()
	select {
	case <-got:
		t.Fatal("WaitFrom(1) returned before new data")
	case <-time.After(20 * time.Millisecond):
	}
	appendN(t, j, 2, 1)
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("WaitFrom = false after append")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitFrom did not wake on append")
	}

	// Cancellation unblocks.
	done := make(chan struct{})
	got2 := make(chan bool, 1)
	go func() { got2 <- j.WaitFrom(done, 99) }()
	close(done)
	select {
	case ok := <-got2:
		if ok {
			t.Fatal("cancelled WaitFrom = true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitFrom did not honor done")
	}

	// Close releases waiters.
	got3 := make(chan bool, 1)
	go func() { got3 <- j.WaitFrom(nil, 99) }()
	time.Sleep(10 * time.Millisecond)
	j.Close()
	select {
	case ok := <-got3:
		if ok {
			t.Fatal("WaitFrom on closed journal = true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release WaitFrom")
	}
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func flipLastByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCommitIndexPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	appendN(t, j, 1, 10)

	if got := j.CommitIndex(); got != 0 {
		t.Fatalf("fresh CommitIndex = %d, want 0", got)
	}
	if err := j.SetCommitIndex(7); err != nil {
		t.Fatal(err)
	}
	// Regressions are ignored: a quorum-acked write stays acked.
	if err := j.SetCommitIndex(3); err != nil {
		t.Fatal(err)
	}
	if got := j.CommitIndex(); got != 7 {
		t.Fatalf("CommitIndex after regress attempt = %d, want 7", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, dir, Options{})
	if got := j2.CommitIndex(); got != 7 {
		t.Fatalf("CommitIndex after reopen = %d, want 7", got)
	}

	// A corrupt sidecar degrades to 0 (re-derived from acks), never an
	// open failure.
	j2.Close()
	if err := os.WriteFile(filepath.Join(dir, commitFile), []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	j3 := openT(t, dir, Options{})
	if got := j3.CommitIndex(); got != 0 {
		t.Fatalf("CommitIndex with corrupt sidecar = %d, want 0", got)
	}
}

// FuzzJournalRecover opens a journal whose active segment holds
// arbitrary bytes, beside an arbitrary commit.idx sidecar. The seeds are
// the segment files the TestCrashRecovery cases leave behind: five
// records, then intact, torn or bit-flipped. Recovery must never panic
// and never accept a damaged record: ReadFrom(0) returns only records the
// seed appended, in increasing order, with every record before the first
// damaged byte among them. Appends continue at Tail()+1, and a second
// Open reads the same records back. A whole record spliced out of place
// is not damage — its CRC holds — so a splice may leave a gap in the
// sequence, as a producer that skips sequences legitimately does.
func FuzzJournalRecover(f *testing.F) {
	seedDir := f.TempDir()
	j, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := j.Append(Record{First: seq, Last: seq, Data: payloadFor(seq)}); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	clean, err := os.ReadFile(j.segPath(1))
	if err != nil {
		f.Fatal(err)
	}
	var ends []int // byte offset past each of the five records
	for off := 0; off < len(clean); {
		_, next, ok := decodeRecord(clean, off)
		if !ok {
			f.Fatalf("clean segment undecodable at %d", off)
		}
		ends = append(ends, next)
		off = next
	}
	flipped := func(at int) []byte {
		b := append([]byte(nil), clean...)
		b[at] ^= 0xff
		return b
	}
	f.Add(clean, []byte("7\n"))
	f.Add(clean[:len(clean)-12], []byte{})                                               // torn header
	f.Add(clean[:len(clean)-1], []byte("3"))                                             // torn payload
	f.Add(flipped(len(clean)-1), []byte("not a number"))                                 // corrupt final payload
	f.Add(clean[:2], []byte("0\n"))                                                      // all records torn
	f.Add(flipped(len(clean)/2), []byte("18446744073709551615"))                         // corrupt interior record
	f.Add(append(append([]byte(nil), clean...), clean[ends[1]:ends[2]]...), []byte("5")) // a replayed record

	f.Fuzz(func(t *testing.T, seg, commit []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, commitFile), commit, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()

		recs, err := j.ReadFrom(0, 0)
		if err != nil {
			t.Fatalf("ReadFrom(0): %v", err)
		}
		var last uint64
		for i, rec := range recs {
			if rec.First != rec.Last || rec.First <= last || rec.First > 5 || !bytes.Equal(rec.Data, payloadFor(rec.First)) {
				t.Fatalf("rec[%d] = {%d %d %q} after %d: not a record the seed appended, in order", i, rec.First, rec.Last, rec.Data, last)
			}
			last = rec.Last
		}
		intact := 0
		for intact < len(ends) && len(seg) >= ends[intact] && bytes.Equal(seg[:ends[intact]], clean[:ends[intact]]) {
			intact++
		}
		if len(recs) < intact {
			t.Fatalf("recovered %d records, but the first %d are intact", len(recs), intact)
		}
		for i := 0; i < intact; i++ {
			if recs[i].First != uint64(i+1) {
				t.Fatalf("rec[%d] is sequence %d inside the intact prefix", i, recs[i].First)
			}
		}
		if got := j.Tail(); got != last {
			t.Fatalf("Tail = %d, last record read = %d", got, last)
		}
		want := uint64(0)
		if n, err := strconv.ParseUint(strings.TrimSpace(string(commit)), 10, 64); err == nil {
			want = n
		}
		if got := j.CommitIndex(); got != want {
			t.Fatalf("CommitIndex = %d from sidecar %q, want %d", got, commit, want)
		}

		next := Record{First: last + 1, Last: last + 1, Data: payloadFor(last + 1)}
		if err := j.Append(next); err != nil {
			t.Fatalf("Append at Tail()+1: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		again, err := re.ReadFrom(0, 0)
		if err != nil {
			t.Fatalf("ReadFrom(0) after reopen: %v", err)
		}
		if want := append(recs, next); !equalRecords(again, want) {
			t.Fatalf("reopen read %d records, want the %d read before plus the append", len(again), len(recs))
		}
	})
}

func equalRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].First != b[i].First || a[i].Last != b[i].Last || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

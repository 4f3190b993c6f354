// Package journal implements Hive's durable, offset-addressable change
// journal: an append-only sequence of records, each covering a
// contiguous range of change-event sequence numbers, stored in rotated
// segment files with CRC framing. It is the persistence layer under the
// social store's typed change log — the log survives restarts, and the
// leader/follower replication protocol reads it by sequence number —
// and the first building block of Hive-as-a-distributed-system: every
// future sharding or replication feature tails this journal.
//
// Durability model: every Append is framed as crc32(payload) |
// payloadLen | payload and flushed to the OS before returning. On open,
// the newest segment's tail is validated record by record; a torn final
// record (partial write before crash) fails the length or CRC check and
// the segment is truncated at the last good record, so acknowledged
// appends survive and the journal never serves garbage.
//
// Addressing: records carry [First, Last] — the inclusive range of
// change-event sequence numbers the record's batch covers. Sequences
// are assigned by the producer (the social store) and are strictly
// monotone across appends. ReadFrom(seq) returns every record that
// contains events after seq, starting in the segment whose range covers
// it; Tail() is the highest sequence persisted. Segment files are named
// by the first sequence they hold, so locating a sequence never reads
// more than one directory listing.
//
// Retention: segments rotate past Options.SegmentBytes, and at most
// Options.Retain closed segments are kept (the active segment always
// survives). Reading past the retention horizon returns ErrCompacted —
// the signal for a replication follower to re-bootstrap from a full
// snapshot instead of tailing. When the journal is its owner's only log
// (the social store's), the owner tells it with SetCovered how far a
// checkpoint holds the records; retention then never drops a segment
// holding a record past that position, and Overdue asks the owner for a
// newer checkpoint once more than Retain closed segments are waiting.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hive/internal/metrics"
)

// mAppendSeconds times the full durable append — framing, write and
// flush — on the process-wide registry.
var mAppendSeconds = metrics.Default.Histogram(metrics.JournalAppendSeconds,
	"Latency of one durable journal append (write + flush).", nil)

// ErrCompacted is returned by ReadFrom when the requested sequence lies
// before the retention horizon: the events were dropped with their
// segment, and the caller must re-bootstrap from a snapshot.
var ErrCompacted = errors.New("journal: sequence compacted away")

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrOutOfOrder is returned by Append when the record's range does not
// extend the journal (First <= Tail): sequences are assigned monotonically
// by the producer, so an out-of-order append is a producer bug.
var ErrOutOfOrder = errors.New("journal: out-of-order append")

// Record is one journal entry: an opaque payload covering the inclusive
// change-sequence range [First, Last].
type Record struct {
	First uint64
	Last  uint64
	Data  []byte
}

// Options tunes rotation and retention. Zero values take the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	SegmentBytes int64
	// Retain bounds how many closed segments are kept; the active
	// segment is always kept. Older segments are deleted on rotation.
	Retain int
}

const (
	defaultSegmentBytes = 4 << 20
	defaultRetain       = 8

	segPrefix = "journal-"
	segSuffix = ".seg"

	// commitFile is the sidecar holding the cluster commit index — the
	// highest change sequence acknowledged by a write quorum. It lives
	// beside the segments (same directory, same fsync domain) but outside
	// the record stream: the index moves monotonically and is rewritten
	// in place (tmp + rename), whereas records only append. ASCII decimal
	// so an operator can cat it.
	commitFile = "commit.idx"
)

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Retain <= 0 {
		o.Retain = defaultRetain
	}
	return o
}

// segment is one on-disk file of the journal. first is the sequence the
// segment starts at (its name); size is its current byte length.
type segment struct {
	path  string
	first uint64
	size  int64
}

// Journal is a durable change journal. All methods are safe for
// concurrent use; appends are serialized, reads snapshot the segment
// list and read files the writer only ever appends to.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	segs   []segment // ascending by first; last entry is active
	f      *os.File  // active segment writer
	bw     *bufio.Writer
	tail   uint64 // highest sequence persisted (0 = empty)
	oldest uint64 // first sequence of the oldest retained segment (0 = empty)
	closed bool
	// covered is the highest sequence held outside the journal (see
	// SetCovered); retention drops no segment holding a later record.
	// Until SetCovered is called every sequence counts as covered.
	covered uint64

	// updated is closed and replaced on every successful Append so
	// long-poll readers (WaitFrom) wake without polling the disk.
	updated chan struct{}

	// cursor remembers where the most recent ReadFrom stopped so the
	// common pattern — one follower tailing sequentially — resumes
	// mid-segment instead of re-decoding the file from byte zero on
	// every poll. Purely an optimization: a mismatch falls back to a
	// full scan.
	cursor readCursor

	// commit is the persisted cluster commit index (commitFile). It is
	// written under cmu — its own lock, so quorum bookkeeping never
	// contends with the append path — and read without any lock.
	cmu    sync.Mutex
	commit atomic.Uint64
}

// readCursor marks a resumable position: a ReadFrom(after, …) whose
// first candidate segment is path may start decoding at off.
type readCursor struct {
	path  string
	off   int
	after uint64
}

// Open opens (creating if necessary) a journal rooted at dir, validates
// the newest segment's tail — truncating a torn final record — and
// positions the writer after the last good record.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{dir: dir, opts: opts.withDefaults(), updated: make(chan struct{}), covered: math.MaxUint64}
	if err := j.load(); err != nil {
		return nil, err
	}
	j.loadCommitIndex()
	return j, nil
}

// segPath names the segment that starts at seq.
func (j *Journal) segPath(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix))
}

// parseSegName extracts the starting sequence from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	seq, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// load discovers the on-disk segments, recovers the tail of the newest
// one and opens it for appending.
func (j *Journal) load() error {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: read dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("journal: stat segment: %w", err)
		}
		j.segs = append(j.segs, segment{
			path:  filepath.Join(j.dir, e.Name()),
			first: first,
			size:  info.Size(),
		})
	}
	sort.Slice(j.segs, func(a, b int) bool { return j.segs[a].first < j.segs[b].first })

	if len(j.segs) == 0 {
		return nil // first Append creates the initial segment
	}
	j.oldest = j.segs[0].first

	// Recover the newest segment: scan to the last good record,
	// truncate any torn tail, and take its Last as the journal tail.
	// Interior segments were sealed by a rotation, which only happens
	// after their final record was fully flushed.
	active := &j.segs[len(j.segs)-1]
	goodLen, last, _, err := scanSegment(active.path)
	if err != nil {
		return err
	}
	if goodLen < active.size {
		if err := os.Truncate(active.path, goodLen); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		active.size = goodLen
	}
	if last > 0 {
		j.tail = last
	} else {
		// The active segment held no valid record (created just before
		// a crash, or fully torn): its name records the sequence it was
		// meant to start at, so the tail is the one before.
		j.tail = active.first - 1
	}
	return j.openActiveLocked()
}

// openActiveLocked opens the newest segment for appending.
func (j *Journal) openActiveLocked() error {
	f, err := os.OpenFile(j.segs[len(j.segs)-1].path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriter(f)
	return nil
}

// encodeRecord frames rec for disk: crc32(payload) | len(payload) |
// payload, payload = first uvarint | last uvarint | data.
func encodeRecord(buf *bytes.Buffer, rec Record) {
	var payload bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], rec.First)
	payload.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], rec.Last)
	payload.Write(tmp[:n])
	payload.Write(rec.Data)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload.Bytes()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payload.Len()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
}

// decodeRecord decodes one record from data starting at off, returning
// the record and the offset past it. ok is false at a torn or corrupt
// record (scanning must stop: everything after is unreachable).
func decodeRecord(data []byte, off int) (rec Record, next int, ok bool) {
	if off+8 > len(data) {
		return Record{}, off, false
	}
	crc := binary.LittleEndian.Uint32(data[off : off+4])
	plen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
	if off+8+plen > len(data) {
		return Record{}, off, false
	}
	payload := data[off+8 : off+8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, off, false
	}
	first, n := binary.Uvarint(payload)
	if n <= 0 {
		return Record{}, off, false
	}
	last, m := binary.Uvarint(payload[n:])
	if m <= 0 || last < first {
		return Record{}, off, false
	}
	rec = Record{First: first, Last: last, Data: append([]byte(nil), payload[n+m:]...)}
	return rec, off + 8 + plen, true
}

// scanSegment reads a whole segment, returning the byte length of its
// valid prefix, the Last sequence of its final good record (0 if none)
// and the decoded records. A record that does not extend the one before
// it ends the valid prefix like a torn one: Append never wrote it there.
func scanSegment(path string) (goodLen int64, last uint64, recs []Record, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil, nil
		}
		return 0, 0, nil, fmt.Errorf("journal: read segment: %w", err)
	}
	off := 0
	for {
		rec, next, ok := decodeRecord(data, off)
		if !ok || rec.First <= last {
			break
		}
		recs = append(recs, rec)
		last = rec.Last
		off = next
	}
	return int64(off), last, recs, nil
}

// Append persists one record and flushes it to the OS before returning:
// once Append returns nil the record survives a crash. Records must
// extend the journal (rec.First > Tail()); the active segment rotates
// past Options.SegmentBytes and rotation enforces retention.
func (j *Journal) Append(rec Record) error {
	if rec.Last < rec.First || rec.First == 0 {
		return fmt.Errorf("journal: invalid record range [%d,%d]", rec.First, rec.Last)
	}
	defer mAppendSeconds.ObserveSince(time.Now())
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if rec.First <= j.tail {
		return fmt.Errorf("%w: record [%d,%d] behind tail %d", ErrOutOfOrder, rec.First, rec.Last, j.tail)
	}
	if len(j.segs) == 0 {
		// First record ever: the initial segment starts at its First.
		j.segs = append(j.segs, segment{path: j.segPath(rec.First), first: rec.First})
		j.oldest = rec.First
		if err := j.openActiveLocked(); err != nil {
			return err
		}
	} else if j.segs[len(j.segs)-1].size >= j.opts.SegmentBytes {
		if err := j.rotateLocked(rec.First); err != nil {
			return err
		}
	}

	var buf bytes.Buffer
	encodeRecord(&buf, rec)
	if _, err := j.bw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	// Flush to the OS on every record: the durability story stays
	// simple and a crashed process loses nothing it acknowledged.
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	j.segs[len(j.segs)-1].size += int64(buf.Len())
	j.tail = rec.Last

	// Wake long-poll waiters.
	close(j.updated)
	j.updated = make(chan struct{})
	return nil
}

// rotateLocked seals the active segment, starts a fresh one at next,
// and deletes the covered segments past the retention bound.
func (j *Journal) rotateLocked(next uint64) error {
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush on rotate: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.segs = append(j.segs, segment{path: j.segPath(next), first: next})
	if err := j.openActiveLocked(); err != nil {
		return err
	}
	return j.dropLocked()
}

// dropLocked enforces retention: it keeps the active segment plus at
// most Retain closed ones, dropping the oldest first, but never a
// segment holding a record past the covered sequence (a segment's
// records end where the next one's begin).
func (j *Journal) dropLocked() error {
	for len(j.segs)-1 > j.opts.Retain && j.segs[1].first-1 <= j.covered {
		old := j.segs[0]
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: drop segment: %w", err)
		}
		j.segs = j.segs[1:]
	}
	j.oldest = j.segs[0].first
	return nil
}

// SetCovered records that every sequence up to seq is held outside the
// journal — by its owner's checkpoint — and drops the segments retention
// no longer needs to keep. From the first call on, retention drops only
// segments whose records all lie at or below the covered sequence.
func (j *Journal) SetCovered(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.covered = seq
	if len(j.segs) == 0 {
		return nil
	}
	return j.dropLocked()
}

// Overdue reports that retention is keeping more than Retain closed
// segments because their records are not covered yet: the owner should
// checkpoint and move SetCovered past them.
func (j *Journal) Overdue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segs)-1 > j.opts.Retain
}

// Reset drops every record and restarts the journal empty with its tail
// at after: the next Append must start past it, and reads from below it
// report ErrCompacted. The one empty segment left behind is named for
// after+1, so the position survives a restart (load derives the tail
// from an empty active segment's name).
func (j *Journal) Reset(after uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: close segment: %w", err)
		}
		j.f, j.bw = nil, nil
	}
	for _, seg := range j.segs {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: drop segment: %w", err)
		}
	}
	j.segs = []segment{{path: j.segPath(after + 1), first: after + 1}}
	if err := j.openActiveLocked(); err != nil {
		return err
	}
	j.tail, j.oldest = after, after+1
	j.cursor = readCursor{}
	close(j.updated)
	j.updated = make(chan struct{})
	return nil
}

// Tail returns the highest sequence persisted so far (0 if empty).
func (j *Journal) Tail() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// Oldest returns the first sequence still readable (0 if empty).
// Sequences below it were dropped by retention.
func (j *Journal) Oldest() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.oldest
}

// Stats reports the journal's addressable range and segment count.
func (j *Journal) Stats() (oldest, tail uint64, segments int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.oldest, j.tail, len(j.segs)
}

// loadCommitIndex reads the commit sidecar. A missing file means no
// quorum write ever committed (index 0); a corrupt one is treated the
// same — the index is a floor re-derived from follower acks, never a
// source of record data, so starting at 0 only widens the re-ack window.
func (j *Journal) loadCommitIndex() {
	raw, err := os.ReadFile(filepath.Join(j.dir, commitFile))
	if err != nil {
		return
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return
	}
	j.commit.Store(n)
}

// CommitIndex returns the persisted cluster commit index: the highest
// change sequence a write quorum has acknowledged (0 = none recorded).
func (j *Journal) CommitIndex() uint64 { return j.commit.Load() }

// SetCommitIndex durably advances the commit index to seq. Regressions
// are ignored without error: the index is monotone by definition (a
// quorum-acked write stays acked), and concurrent ack bookkeeping may
// legitimately race an older value here. The write is tmp + rename so a
// crash mid-update leaves the previous index intact.
func (j *Journal) SetCommitIndex(seq uint64) error {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	if seq <= j.commit.Load() {
		return nil
	}
	path := filepath.Join(j.dir, commitFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(seq, 10)+"\n"), 0o644); err != nil {
		return fmt.Errorf("journal: write commit index: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: rename commit index: %w", err)
	}
	j.commit.Store(seq)
	return nil
}

// ReadFrom returns up to max records containing events with sequence
// numbers strictly greater than after, in order. It returns
// ErrCompacted when after+1 lies before the retention horizon — the
// events are gone and the caller must bootstrap from a snapshot. An
// empty result with a nil error means the caller is caught up.
func (j *Journal) ReadFrom(after uint64, max int) ([]Record, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	if j.tail <= after {
		j.mu.Unlock()
		return nil, nil
	}
	if after+1 < j.oldest {
		j.mu.Unlock()
		return nil, ErrCompacted
	}
	// Snapshot the segment list covering the request. Appends only ever
	// extend the newest file, and decoding stops cleanly at a torn tail,
	// so reading concurrently with the writer is safe; flush-per-append
	// means every acknowledged record is visible to ReadFile.
	var paths []string
	for i, seg := range j.segs {
		// A segment covers [seg.first, nextSeg.first): include it when
		// its range can contain sequences > after.
		if i+1 < len(j.segs) && j.segs[i+1].first <= after+1 {
			continue
		}
		paths = append(paths, seg.path)
	}
	// A sequential tail (same after, same starting segment as the last
	// call left off in) resumes mid-file instead of re-decoding already
	// consumed records.
	startOff := 0
	if j.cursor.after == after && len(paths) > 0 && j.cursor.path == paths[0] {
		startOff = j.cursor.off
	}
	j.mu.Unlock()

	if max <= 0 {
		max = 1 << 30
	}
	var out []Record
	cur := readCursor{after: after}
	for pi, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				// Retention deleted the segment between the snapshot of
				// the list and this read: the range is gone, not empty.
				return nil, ErrCompacted
			}
			return nil, fmt.Errorf("journal: read segment: %w", err)
		}
		off := 0
		if pi == 0 && startOff <= len(data) {
			off = startOff
		}
		cur.path = path
		for {
			rec, next, ok := decodeRecord(data, off)
			if !ok {
				break
			}
			off = next
			if rec.Last <= after {
				continue
			}
			out = append(out, rec)
			if len(out) >= max {
				j.saveCursor(readCursor{path: path, off: off, after: rec.Last})
				return out, nil
			}
		}
		cur.off = off
	}
	if n := len(out); n > 0 {
		cur.after = out[n-1].Last
	}
	j.saveCursor(cur)
	return out, nil
}

// saveCursor records where the scan stopped, keyed by the `after` value
// the next sequential call will use.
func (j *Journal) saveCursor(c readCursor) {
	j.mu.Lock()
	j.cursor = c
	j.mu.Unlock()
}

// WaitFrom blocks until the journal holds sequences greater than after
// or done is closed/cancelled, whichever comes first. It returns true
// when new data is available.
func (j *Journal) WaitFrom(done <-chan struct{}, after uint64) bool {
	for {
		j.mu.Lock()
		if j.closed {
			j.mu.Unlock()
			return false
		}
		if j.tail > after {
			j.mu.Unlock()
			return true
		}
		ch := j.updated
		j.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return false
		}
	}
}

// Close flushes and closes the journal. Waiters are released.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	close(j.updated)
	j.updated = make(chan struct{})
	if j.f == nil {
		return nil
	}
	if err := j.bw.Flush(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: flush on close: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

package social

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hive/internal/journal"
	"hive/internal/kvstore"
)

func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// Regression: a reopened durable store must resume its change-event
// sequence where it left off — a fresh-started counter makes delta
// watermarks and journal offsets disagree with persisted state.
func TestChangeSeqResumesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	for i := 0; i < 5; i++ {
		if err := st.PutUser(User{ID: fmt.Sprintf("u%d", i), Name: "U"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Connect("u0", "u1"); err != nil {
		t.Fatal(err)
	}
	seq := st.ChangeSeq()
	if seq == 0 {
		t.Fatal("ChangeSeq = 0 after writes")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDir(t, dir)
	if got := re.ChangeSeq(); got != seq {
		t.Fatalf("reopened ChangeSeq = %d, want %d", got, seq)
	}
	// New events continue the sequence instead of colliding with
	// persisted offsets.
	var got []ChangeEvent
	re.OnChange(func(evs []ChangeEvent) { got = append(got, evs...) })
	if err := re.PutUser(User{ID: "after", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != seq+1 {
		t.Fatalf("post-reopen event = %+v, want seq %d", got, seq+1)
	}
	if _, tail, _ := re.JournalStats(); tail != seq+1 {
		t.Fatalf("journal tail = %d, want %d", tail, seq+1)
	}
}

// The journal captures every delivered batch with its kv image; a
// second store applying those batches converges to identical contents.
func TestJournalBatchesReplicateStore(t *testing.T) {
	leader := openDir(t, t.TempDir())
	if err := leader.Batched(func() error {
		for i := 0; i < 3; i++ {
			if err := leader.PutUser(User{ID: fmt.Sprintf("u%d", i), Name: "U", Interests: []string{"graphs"}}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := leader.PutConference(Conference{ID: "c1", Name: "Conf"}); err != nil {
		t.Fatal(err)
	}
	if err := leader.PutSession(Session{ID: "s1", ConferenceID: "c1", Title: "S", Hashtag: "#s"}); err != nil {
		t.Fatal(err)
	}
	if err := leader.CheckIn("s1", "u0"); err != nil {
		t.Fatal(err)
	}

	batches, err := leader.ChangesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatal("no journaled batches")
	}
	// The coalesced Batched pass is one batch.
	if batches[0].First != 1 || batches[0].Last != 3 || len(batches[0].Events) != 3 {
		t.Fatalf("first batch = [%d,%d] with %d events", batches[0].First, batches[0].Last, len(batches[0].Events))
	}

	follower := openDir(t, t.TempDir())
	var delivered []ChangeEvent
	follower.OnChange(func(evs []ChangeEvent) { delivered = append(delivered, evs...) })
	for _, rb := range batches {
		if err := follower.ApplyReplica(rb); err != nil {
			t.Fatal(err)
		}
	}
	if follower.ChangeSeq() != leader.ChangeSeq() {
		t.Fatalf("follower seq %d != leader seq %d", follower.ChangeSeq(), leader.ChangeSeq())
	}
	if !reflect.DeepEqual(follower.Users(), leader.Users()) {
		t.Fatalf("users diverge: %v vs %v", follower.Users(), leader.Users())
	}
	if got := follower.Attendees("s1"); len(got) != 1 || got[0] != "u0" {
		t.Fatalf("follower attendees = %v", got)
	}
	// The check-in's activity event replicated too (feeds are served
	// straight from the store).
	if follower.LastEventSeq() != leader.LastEventSeq() {
		t.Fatalf("activity seq %d != %d", follower.LastEventSeq(), leader.LastEventSeq())
	}
	if len(delivered) == 0 {
		t.Fatal("replica apply delivered no change events")
	}
	// Re-applying is a no-op (reconnect replays).
	before := follower.ChangeSeq()
	for _, rb := range batches {
		if err := follower.ApplyReplica(rb); err != nil {
			t.Fatal(err)
		}
	}
	if follower.ChangeSeq() != before {
		t.Fatalf("duplicate apply advanced seq to %d", follower.ChangeSeq())
	}
}

func TestSnapshotBootstrapThenTail(t *testing.T) {
	leader := openDir(t, t.TempDir())
	for i := 0; i < 4; i++ {
		if err := leader.PutUser(User{ID: fmt.Sprintf("u%d", i), Name: "U"}); err != nil {
			t.Fatal(err)
		}
	}
	seq, entries := leader.SnapshotForReplication()
	if seq != leader.ChangeSeq() || len(entries) == 0 {
		t.Fatalf("snapshot = seq %d, %d entries", seq, len(entries))
	}

	// Writes after the snapshot arrive via the journal tail.
	if err := leader.PutUser(User{ID: "late", Name: "L"}); err != nil {
		t.Fatal(err)
	}

	follower := openDir(t, t.TempDir())
	if err := follower.ImportReplicaSnapshot(seq, entries); err != nil {
		t.Fatal(err)
	}
	if follower.ChangeSeq() != seq {
		t.Fatalf("imported seq = %d, want %d", follower.ChangeSeq(), seq)
	}
	if len(follower.Users()) != 4 {
		t.Fatalf("imported users = %v", follower.Users())
	}
	batches, err := leader.ChangesSince(seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range batches {
		if err := follower.ApplyReplica(rb); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(follower.Users(), leader.Users()) {
		t.Fatalf("users diverge after tail: %v vs %v", follower.Users(), leader.Users())
	}
}

// A replication snapshot taken while writers run is exactly the journal
// folded up to the watermark it names: a follower that bootstraps from
// it and tails past the watermark holds no write the leader's journal
// never got, and misses none it did.
func TestReplicationSnapshotIsAtItsWatermark(t *testing.T) {
	st := openDir(t, t.TempDir())
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.PutUser(User{ID: fmt.Sprintf("w%d-%05d", w, i), Name: "W"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	type snapshot struct {
		seq     uint64
		entries []kvstore.Entry
	}
	var snaps []snapshot
	for len(snaps) < 20 {
		time.Sleep(time.Millisecond)
		seq, entries := st.SnapshotForReplication()
		if entries == nil {
			t.Fatal("a healthy store served no snapshot")
		}
		snaps = append(snaps, snapshot{seq, entries})
	}
	close(stop)
	writers.Wait()

	batches, err := st.ChangesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, sn := range snaps {
		folded, at := map[string][]byte{}, uint64(0)
		for _, rb := range batches {
			if rb.Last > sn.seq {
				break
			}
			for k, v := range rb.Puts {
				folded[k] = v
			}
			for _, k := range rb.Dels {
				delete(folded, k)
			}
			at = rb.Last
		}
		if at != sn.seq {
			t.Fatalf("snapshot %d names seq %d, but no journal record ends there", i, sn.seq)
		}
		ahead, missing := 0, 0
		held := map[string]bool{}
		for _, e := range sn.entries {
			held[e.Key] = true
			if w, ok := folded[e.Key]; !ok || !bytes.Equal(e.Val, w) {
				ahead++
			}
		}
		for k := range folded {
			if !held[k] {
				missing++
			}
		}
		if ahead+missing > 0 {
			t.Errorf("snapshot %d at seq %d: %d keys not as the journal has them at that seq, %d missing", i, sn.seq, ahead, missing)
		}
	}
}

// Importing a snapshot behind the local journal tail replaces the
// journal's history too: a node that re-synced from a shorter image and
// then leads must journal its next write (not fail it as out of order
// behind records the image never held) and must never serve those
// records to its own followers.
func TestImportBehindJournalTailResetsJournal(t *testing.T) {
	short := openDir(t, t.TempDir())
	for i := 0; i < 2; i++ {
		if err := short.PutUser(User{ID: fmt.Sprintf("s%d", i), Name: "S"}); err != nil {
			t.Fatal(err)
		}
	}
	seq, entries := short.SnapshotForReplication()

	dir := t.TempDir()
	long := openDir(t, dir)
	for i := 0; i < 5; i++ {
		if err := long.PutUser(User{ID: fmt.Sprintf("l%d", i), Name: "L"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, tail, _ := long.JournalStats(); tail <= seq {
		t.Fatalf("test setup: journal tail %d must be past the snapshot watermark %d", tail, seq)
	}
	if err := long.ImportReplicaSnapshot(seq, entries); err != nil {
		t.Fatal(err)
	}
	if _, tail, _ := long.JournalStats(); tail != seq {
		t.Fatalf("journal tail after import = %d, want the watermark %d", tail, seq)
	}
	if recs, err := long.ChangesSince(seq, 0); err != nil || len(recs) != 0 {
		t.Fatalf("ChangesSince(watermark) = %d batches, %v; want none", len(recs), err)
	}

	if err := long.PutUser(User{ID: "next", Name: "N"}); err != nil {
		t.Fatal(err)
	}
	if err := long.JournalError(); err != nil {
		t.Fatalf("write after import: journal error %v", err)
	}
	recs, err := long.ChangesSince(seq, 0)
	if err != nil || len(recs) != 1 || recs[0].First != seq+1 || len(recs[0].Events) == 0 || recs[0].Events[0].ID != "next" {
		t.Fatalf("ChangesSince(watermark) after a write = %+v, %v", recs, err)
	}
	want := long.ChangeSeq()
	long.Close()
	if got := openDir(t, dir).ChangeSeq(); got != want {
		t.Fatalf("reopened change sequence = %d, want %d", got, want)
	}
}

func TestChangesSinceCompactedSignalsBootstrap(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenJournaled(dir, nil, journal.Options{SegmentBytes: 256, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 200; i++ {
		if err := st.PutUser(User{ID: fmt.Sprintf("u%03d", i), Name: "U"}); err != nil {
			t.Fatal(err)
		}
	}
	st.ckWG.Wait() // a background checkpoint would move the horizon under the reads below
	oldest, tail, _ := st.JournalStats()
	if oldest <= 1 || tail != st.ChangeSeq() {
		t.Fatalf("journal stats = (%d, %d)", oldest, tail)
	}
	if _, err := st.ChangesSince(0, 0); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("ChangesSince(0) err = %v, want ErrCompacted", err)
	}
	if _, err := st.ChangesSince(oldest-1, 10); err != nil {
		t.Fatalf("ChangesSince(horizon) err = %v", err)
	}
}

// In-memory stores have no journal: replication reads fail cleanly and
// writes are unaffected.
func TestInMemoryStoreHasNoJournal(t *testing.T) {
	st := openDir(t, "")
	if st.Journaled() {
		t.Fatal("in-memory store reports a journal")
	}
	if err := st.PutUser(User{ID: "u", Name: "U"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ChangesSince(0, 0); err == nil {
		t.Fatal("ChangesSince on in-memory store succeeded")
	}
	if oldest, tail, segs := st.JournalStats(); oldest != 0 || tail != 0 || segs != 0 {
		t.Fatalf("JournalStats = (%d,%d,%d)", oldest, tail, segs)
	}
}

package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// at returns a Checkpoint position callback that always checkpoints at w.
func at(w uint64) func() (uint64, bool) { return func() (uint64, bool) { return w, true } }

// reopen checkpoints s at w, closes it and opens its dir again.
func reopen(t *testing.T, s *Store, dir string, w uint64) *Store {
	t.Helper()
	if err := s.Checkpoint(at(w)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if got := s2.Watermark(); got != w {
		t.Fatalf("Watermark after reopen = %d, want %d", got, w)
	}
	return s2
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGet(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v" {
		t.Fatalf("Get = %q", v)
	}
}

func TestGetMissing(t *testing.T) {
	s := openTemp(t)
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := openTemp(t)
	_ = s.Put("k", []byte("a"))
	_ = s.Put("k", []byte("b"))
	v, _ := s.Get("k")
	if string(v) != "b" {
		t.Fatalf("Get = %q, want b", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := openTemp(t)
	_ = s.Put("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Has("k") {
		t.Fatal("key still present after delete")
	}
	// Deleting an absent key is a no-op.
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := openTemp(t)
	_ = s.Put("k", []byte("abc"))
	v, _ := s.Get("k")
	v[0] = 'X'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatalf("internal value mutated: %q", v2)
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := openTemp(t)
	buf := []byte("abc")
	_ = s.Put("k", buf)
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", v)
	}
}

func TestScanPrefixOrder(t *testing.T) {
	s := openTemp(t)
	for _, k := range []string{"user/3", "user/1", "paper/9", "user/2"} {
		_ = s.Put(k, []byte(k))
	}
	var got []string
	s.Scan("user/", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []string{"user/1", "user/2", "user/3"}
	if len(got) != len(want) {
		t.Fatalf("Scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := openTemp(t)
	for i := 0; i < 5; i++ {
		_ = s.Put(fmt.Sprintf("k%d", i), nil)
	}
	count := 0
	s.Scan("k", func(string, []byte) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visited %d, want 2", count)
	}
}

func TestKeys(t *testing.T) {
	s := openTemp(t)
	_ = s.Put("a/1", nil)
	_ = s.Put("b/1", nil)
	keys := s.Keys("a/")
	if len(keys) != 1 || keys[0] != "a/1" {
		t.Fatalf("Keys = %v", keys)
	}
}

// A pre-journal data dir holds a wal.log beside its snapshot. Open folds
// it over the snapshot, checkpoints the result at the owner's log tail
// and removes the wal.log.
func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	legacySnap := walImage([3]string{"put", "a", "0"}, [3]string{"put", "s", "snap"})
	if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), legacySnap, 0o644); err != nil {
		t.Fatal(err)
	}
	wal := walImage([3]string{"put", "a", "1"}, [3]string{"put", "b", "2"}, [3]string{"del", "a", ""})
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenLogged(dir, &fakeLog{oldest: 3, tail: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertHolds(t, s, map[string]string{"b": "2", "s": "snap"})
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) || s.Watermark() != 7 {
		t.Fatalf("after the migration: wal.log %v, checkpoint at %d; want it gone, at the log tail 7", err, s.Watermark())
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertHolds(t, s2, map[string]string{"b": "2", "s": "snap"})
}

// fakeLog stands in for the owner's log: its range, and the resets an
// open makes to finish an import.
type fakeLog struct {
	oldest, tail uint64
	resets       []uint64
}

func (l *fakeLog) Oldest() uint64 { return l.oldest }
func (l *fakeLog) Tail() uint64   { return l.tail }
func (l *fakeLog) Reset(after uint64) error {
	l.oldest, l.tail = after+1, after
	l.resets = append(l.resets, after)
	return nil
}

// A pre-journal wal.log may end in a torn record; the fold keeps what
// precedes it, as that store's own recovery did.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	wal := append(walImage([3]string{"put", "good", "1"}), 0xde, 0xad, 0xbe)
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("fold of a torn wal.log: %v", err)
	}
	assertHolds(t, s, map[string]string{"good": "1"})
	_ = s.Put("after", []byte("x"))
	assertHolds(t, reopen(t, s, dir, 1), map[string]string{"good": "1", "after": "x"})
}

// A record of a pre-journal wal.log that fails its CRC ends the fold.
func TestRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	wal := walImage([3]string{"put", "a", "1"}, [3]string{"put", "b", "2"})
	wal[len(wal)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertHolds(t, s, map[string]string{"a": "1"})
}

func TestCheckpointKeepsLatestVersion(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 100; i++ {
		_ = s.Put("k", []byte(fmt.Sprintf("v%d", i))) // 100 versions of one key
	}
	s2 := reopen(t, s, dir, 100)
	v, err := s2.Get("k")
	if err != nil || string(v) != "v99" {
		t.Fatalf("Get after checkpoint = %q, %v", v, err)
	}
	// One record for the key and the trailer: versions do not pile up.
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.db"))
	if err != nil {
		t.Fatal(err)
	}
	if n := replayRecords(data, func(byte, []byte, []byte) {}).count; n != 2 {
		t.Fatalf("checkpoint holds %d records, want 2", n)
	}
}

// Writes made after a checkpoint survive the next one; a write no
// checkpoint holds lives only in memory (the owner's log carries it).
func TestWritesAfterCompactSurvive(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("old", []byte("1"))
	if err := s.Checkpoint(at(1)); err != nil {
		t.Fatal(err)
	}
	_ = s.Put("new", []byte("2"))
	if err := s.Checkpoint(at(2)); err != nil {
		t.Fatal(err)
	}
	_ = s.Put("unlogged", []byte("3"))
	_ = s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Has("old") || !s2.Has("new") || s2.Watermark() != 2 {
		t.Fatalf("data lost across checkpoint+reopen (watermark %d)", s2.Watermark())
	}
	if s2.Has("unlogged") {
		t.Fatal("a write after the last checkpoint reached disk")
	}
}

// A checkpoint whose position callback declines writes nothing.
func TestCheckpointDeclined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("k", nil)
	if err := s.Checkpoint(func() (uint64, bool) { return 9, false }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.db")); !os.IsNotExist(err) || s.Watermark() != 0 {
		t.Fatalf("declined checkpoint: stat %v, watermark %d", err, s.Watermark())
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	s := openTemp(t)
	_ = s.Put("del", []byte("x"))
	b := NewBatch().Put("a", []byte("1")).Put("b", []byte("2")).Delete("del")
	if b.Len() != 3 {
		t.Fatalf("Batch.Len = %d", b.Len())
	}
	if err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if !s.Has("a") || !s.Has("b") || s.Has("del") {
		t.Fatal("batch not applied fully")
	}
}

func TestBatchPutThenDeleteSameKey(t *testing.T) {
	b := NewBatch().Put("k", []byte("v")).Delete("k")
	if len(b.puts) != 0 || len(b.deletes) != 1 {
		t.Fatalf("delete should supersede put: %v %v", b.puts, b.deletes)
	}
	b2 := NewBatch().Delete("k").Put("k", []byte("v"))
	if len(b2.puts) != 1 || len(b2.deletes) != 0 {
		t.Fatalf("put should supersede delete: %v %v", b2.puts, b2.deletes)
	}
}

func TestBatchDurable(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Apply(NewBatch().Put("a", []byte("1")).Put("b", nil))
	if !reopen(t, s, dir, 1).Has("a") {
		t.Fatal("batch write lost across a checkpoint")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := Open(t.TempDir())
	_ = s.Close()
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put err = %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get err = %v", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete err = %v", err)
	}
	if err := s.Checkpoint(at(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close err = %v", err)
	}
}

func TestInMemoryMode(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_ = s.Put("k", []byte("v"))
	if !s.Has("k") {
		t.Fatal("in-memory put failed")
	}
	if err := s.Checkpoint(at(1)); err != nil || s.Watermark() != 0 {
		t.Fatalf("in-memory checkpoint should be a no-op: %v", err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("empty", nil)
	s2 := reopen(t, s, dir, 1)
	v, err := s2.Get("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("v = %q", v)
	}
}

func TestBinaryKeysAndValues(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := string([]byte{0, 1, 2, 255})
	val := []byte{255, 0, 128, 7}
	_ = s.Put(key, val)
	s2 := reopen(t, s, dir, 1)
	v, err := s2.Get(key)
	if err != nil || !bytes.Equal(v, val) {
		t.Fatalf("binary round-trip failed: %v %v", v, err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	s := openTemp(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = s.Put(fmt.Sprintf("k%d", i%10), []byte(fmt.Sprintf("v%d", i)))
		}
	}()
	for i := 0; i < 500; i++ {
		s.Scan("k", func(string, []byte) bool { return true })
		_, _ = s.Get("k1")
		s.Has("k2")
	}
	<-done
}

// A checkpoint is the only copy of everything at or below its position:
// Open accepts it whole or fails naming the file, never a valid prefix.
func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("k", []byte("v"))
	_ = s.Put("l", []byte("w"))
	_ = s.Checkpoint(at(3))
	_ = s.Close()

	snap := filepath.Join(dir, "snapshot.db")
	whole, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	trailerAt := len(whole) - (8 + 2 + 16) // header, op and key length, count and position
	damaged := map[string][]byte{
		"torn mid-record":    whole[:len(whole)-2],
		"cut before trailer": whole[:trailerAt],
		"bit flipped":        append(append([]byte(nil), whole[:5]...), append([]byte{whole[5] ^ 0x10}, whole[6:]...)...),
		"trailing bytes":     append(append([]byte(nil), whole...), 0),
	}
	for name, data := range damaged {
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s2, err := Open(dir); err == nil {
			s2.Close()
			t.Fatalf("%s: Open accepted a damaged checkpoint", name)
		} else if !strings.Contains(err.Error(), snap) {
			t.Fatalf("%s: error %q does not name %s", name, err, snap)
		}
	}
}

// A checkpoint's keys are strictly ascending, and Open bulk-loads them
// in file order: a file with a key out of order or repeated is refused,
// naming it, as a torn one is.
func TestUnorderedSnapshotRejected(t *testing.T) {
	vals := map[string][]byte{"a": []byte("1"), "b": []byte("2")}
	for name, keys := range map[string][]string{
		"out of order": {"b", "a"},
		"repeated":     {"a", "a", "b"},
	} {
		dir := t.TempDir()
		snap := filepath.Join(dir, "snapshot.db")
		if err := os.WriteFile(snap, encodeImage(keys, vals, 3), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir); err == nil {
			s.Close()
			t.Fatalf("%s: Open accepted the checkpoint", name)
		} else if !strings.Contains(err.Error(), snap) {
			t.Fatalf("%s: error %q does not name %s", name, err, snap)
		}
	}
}

func TestScanEmptyPrefixListsAll(t *testing.T) {
	s := openTemp(t)
	for _, k := range []string{"a", "b", "c"} {
		_ = s.Put(k, nil)
	}
	if got := s.Keys(""); len(got) != 3 {
		t.Fatalf("Keys(\"\") = %v", got)
	}
}

func TestCompactEmptyStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if s2 := reopen(t, s, dir, 4); s2.Len() != 0 {
		t.Fatalf("Len = %d", s2.Len())
	}
}

// ImportSnapshot stages the image whole before reset runs: a crash
// before the staged file is whole reopens the old image (the torn stage
// is discarded), and a crash after it reopens the import, with the log
// restarted after its watermark unless reset had already done it.
func TestImportSnapshotCrashSteps(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("old", []byte("1"))
	_ = s.Checkpoint(at(5))
	before := copyDir(t, dir)
	img := map[string][]byte{"new": []byte("2")}
	var afterStage string
	err := s.ImportSnapshot(image(img), 9, func() error {
		afterStage = copyDir(t, dir)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertHolds(t, s, map[string]string{"new": "2"})
	if s.Watermark() != 9 {
		t.Fatalf("Watermark after import = %d", s.Watermark())
	}

	for _, log := range []*fakeLog{{oldest: 2, tail: 12}, {oldest: 10, tail: 9}} {
		work := copyDir(t, afterStage)
		wantResets := log.oldest != 10
		staged, err := OpenLogged(work, log)
		if err != nil {
			t.Fatal(err)
		}
		if staged.Watermark() != 9 || (len(log.resets) > 0) != wantResets {
			t.Fatalf("crash after staging: watermark %d, log resets %v", staged.Watermark(), log.resets)
		}
		assertHolds(t, staged, map[string]string{"new": "2"})
		assertHolds(t, reopen(t, staged, work, 9), map[string]string{"new": "2"})
	}

	data := encodeImage([]string{"new"}, map[string][]byte{"new": []byte("2")}, 9)
	if err := os.WriteFile(filepath.Join(before, "import.db"), data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	log := &fakeLog{oldest: 2, tail: 5}
	s3, err := OpenLogged(before, log)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Watermark() != 5 || len(log.resets) > 0 {
		t.Fatalf("a torn staged import was loaded (watermark %d, log resets %v)", s3.Watermark(), log.resets)
	}
	assertHolds(t, s3, map[string]string{"old": "1"})
	if _, err := os.Stat(filepath.Join(before, "import.db")); !os.IsNotExist(err) {
		t.Fatalf("torn staged import left in place: %v", err)
	}
}

// copyDir copies the flat directory dir to a new temp dir.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// image returns m as ImportSnapshot takes it: entries in key order.
func image(m map[string][]byte) []Entry {
	items := make([]Entry, 0, len(m))
	for k, v := range m {
		items = append(items, Entry{Key: k, Val: v})
	}
	slices.SortFunc(items, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return items
}

// An import is a key-ordered image: a key out of order or repeated is
// refused, as a checkpoint with one is, and the store is left as it was.
func TestImportSnapshotRejectsUnorderedKeys(t *testing.T) {
	for name, items := range map[string][]Entry{
		"out of order": {{Key: "b", Val: []byte("1")}, {Key: "a", Val: []byte("2")}},
		"duplicated":   {{Key: "a", Val: []byte("1")}, {Key: "a", Val: []byte("2")}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			_ = s.Put("old", []byte("1"))
			_ = s.Checkpoint(at(5))
			reset := false
			err = s.ImportSnapshot(items, 9, func() error { reset = true; return nil })
			if err == nil || reset {
				t.Fatalf("ImportSnapshot = %v (reset ran: %v), want a refusal before any step", err, reset)
			}
			assertHolds(t, s, map[string]string{"old": "1"})
			if s.Watermark() != 5 {
				t.Fatalf("Watermark after a refused import = %d, want 5", s.Watermark())
			}
		})
	}
}

// TestCheckpointFormatUnchanged: the checkpoint a store writes after a
// run of puts, overwrites and deletes is byte-equal to
// testdata/checkpoint.golden, which the store wrote for the same writes
// when its leaves still held a string and a slice per key, and both
// reopen to the store's image: packing the leaves changed nothing on
// disk.
func TestCheckpointFormatUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	formatWrites(t, s)
	want, _, _, err := s.Image(at(7))
	if err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s, dir, 7)
	got, err := os.ReadFile(s.snapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("checkpoint of %d bytes differs from the %d-byte golden one", len(got), len(golden))
	}
	items, w, err := readImageFile(filepath.Join("testdata", "checkpoint.golden"), false)
	if err != nil || w != 7 {
		t.Fatalf("golden checkpoint reads at %d: %v", w, err)
	}
	reopened, _, _, err := s.Image(at(7))
	if err != nil {
		t.Fatal(err)
	}
	eq := func(a, b Entry) bool { return a.Key == b.Key && bytes.Equal(a.Val, b.Val) }
	if !slices.EqualFunc(items, want, eq) || !slices.EqualFunc(reopened, want, eq) {
		t.Fatalf("golden checkpoint holds %d entries, reopened store %d, written image %d", len(items), len(reopened), len(want))
	}
}

// formatWrites drives s through puts, overwrites and deletes of keys
// with long shared prefixes, a fifth of them with empty values, enough
// to split, rewrite and merge leaves.
func formatWrites(t *testing.T, s *Store) {
	rng := rand.New(rand.NewSource(42))
	stems := []string{"evactor/u001/00000000", "evactor/u002/00000000", "follow/u001/u", "paper/p", ""}
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("%s%04d", stems[rng.Intn(len(stems))], rng.Intn(150))
		var err error
		switch rng.Intn(5) {
		case 0:
			err = s.Delete(k)
		case 1:
			err = s.Put(k, nil)
		default:
			err = s.Put(k, []byte(fmt.Sprintf(`{"id":%q,"n":%d}`, k, i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

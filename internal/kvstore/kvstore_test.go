package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

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

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("a", []byte("1"))
	_ = s.Put("b", []byte("2"))
	_ = s.Delete("a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Has("a") {
		t.Fatal("deleted key resurrected")
	}
	v, err := s2.Get("b")
	if err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("good", []byte("1"))
	_ = s.Close()

	// Simulate a crash mid-append: write garbage half-record at the tail.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if !s2.Has("good") {
		t.Fatal("good record lost")
	}
	// And the store must accept new writes that survive another cycle.
	_ = s2.Put("after", []byte("x"))
	_ = s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !s3.Has("after") || !s3.Has("good") {
		t.Fatal("data lost after torn-tail recovery")
	}
}

func TestRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("a", []byte("1"))
	_ = s.Put("b", []byte("2"))
	_ = s.Close()

	// Flip a byte inside the second record's payload.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Has("a") {
		t.Fatal("first record should survive")
	}
	if s2.Has("b") {
		t.Fatal("corrupt record should be dropped")
	}
}

func TestCompactPreservesDataAndShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 100; i++ {
		_ = s.Put("k", []byte(fmt.Sprintf("v%d", i))) // 100 versions of one key
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("wal size after compact = %d, want 0", st.Size())
	}
	_ = s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get("k")
	if err != nil || string(v) != "v99" {
		t.Fatalf("Get after compact = %q, %v", v, err)
	}
}

func TestWritesAfterCompactSurvive(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("old", []byte("1"))
	_ = s.Compact()
	_ = s.Put("new", []byte("2"))
	_ = s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Has("old") || !s2.Has("new") {
		t.Fatal("data lost across compact+reopen")
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
	_ = s.Apply(NewBatch().Put("a", []byte("1")))
	_ = s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Has("a") {
		t.Fatal("batch write lost")
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
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact err = %v", err)
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
	if err := s.Compact(); err != nil {
		t.Fatalf("in-memory compact should be a no-op: %v", err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("empty", nil)
	_ = s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
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
	_ = s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	v, err := s2.Get(key)
	if err != nil || !bytes.Equal(v, val) {
		t.Fatalf("binary round-trip failed: %v %v", v, err)
	}
}

// Property: after an arbitrary sequence of puts and deletes followed by a
// reopen, the store contents equal a plain map subjected to the same ops.
func TestPropWALMatchesModel(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val uint16
	}
	f := func(ops []op) bool {
		dir, err := os.MkdirTemp("", "kvprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir)
		if err != nil {
			return false
		}
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%16)
			if o.Del {
				if s.Delete(k) != nil {
					return false
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", o.Val)
				if s.Put(k, []byte(v)) != nil {
					return false
				}
				model[k] = v
			}
		}
		if s.Close() != nil {
			return false
		}
		s2, err := Open(dir)
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, err := s2.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
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

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_ = s.Put("k", []byte("v"))
	_ = s.Compact()
	_ = s.Close()

	// Truncate the snapshot mid-record; the loader tolerates a torn tail
	// (treats it as the end), so the store must still open and keep the
	// prefix that validated.
	snap := filepath.Join(dir, "snapshot.db")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn snapshot: %v", err)
	}
	defer s2.Close()
	if s2.Has("k") {
		t.Fatal("torn record should have been dropped")
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
	defer s.Close()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

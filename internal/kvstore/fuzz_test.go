package kvstore

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walImage frames records the way the WAL and the snapshot file do.
func walImage(recs ...[3]string) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		op := opPut
		if r[0] == "del" {
			op = opDelete
		}
		writeRecord(&buf, op, []byte(r[1]), []byte(r[2]))
	}
	return buf.Bytes()
}

// FuzzReplay feeds arbitrary bytes to the record decoder behind both the
// WAL and the snapshot file. The seeds are the images the crash-recovery
// tests build by hand: a clean log, a torn tail, a flipped CRC byte, a
// snapshot cut mid-record.
func FuzzReplay(f *testing.F) {
	clean := walImage([3]string{"put", "a", "1"}, [3]string{"put", "b", "2"}, [3]string{"del", "a", ""}, [3]string{"put", "", ""})
	f.Add([]byte{})
	f.Add(clean)
	f.Add(append(slices.Clone(clean), 0xde, 0xad, 0xbe))
	flipped := slices.Clone(clean)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Add(clean[:len(clean)-2])
	f.Add(walImage([3]string{"put", "k\x00\xff", "binary\x00value"}, [3]string{"del", "missing", ""}))

	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			op       byte
			key, val string
		}
		var recs []rec
		res, err := replayRecords(data, func(op byte, key, val []byte) {
			recs = append(recs, rec{op, string(key), string(val)})
		})
		if err != nil || res.offset > len(data) || res.count != len(recs) {
			t.Fatalf("replay of %d bytes: offset %d, count %d, %d records, err %v", len(data), res.offset, res.count, len(recs), err)
		}
		count := func(b []byte) int {
			r, _ := replayRecords(b, func(byte, []byte, []byte) {})
			return r.count
		}
		// What was accepted stands on its own, and its last record is
		// accepted only whole and only with its checksum intact.
		good := slices.Clone(data[:res.offset])
		if r, _ := replayRecords(good, func(byte, []byte, []byte) {}); r != res {
			t.Fatalf("accepted prefix replays to %+v, whole input to %+v", r, res)
		}
		if res.count > 0 {
			if n := count(good[:len(good)-1]); n != res.count-1 {
				t.Fatalf("torn last record: %d records accepted, want %d", n, res.count-1)
			}
			good[len(good)-1] ^= 0x01
			if n := count(good); n != res.count-1 {
				t.Fatalf("last record with a flipped bit: %d records accepted, want %d", n, res.count-1)
			}
		}

		// As a WAL: the store opens, holds what the accepted records say,
		// lists it in order, and has cut the log back to the accepted
		// prefix so that a second open sees the same.
		model := map[string]string{}
		for _, r := range recs {
			switch r.op {
			case opPut:
				model[r.key] = r.val
			case opDelete:
				delete(model, r.key)
			}
		}
		dir := t.TempDir()
		wal := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(wal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("open pass %d: %v", pass, err)
			}
			assertHolds(t, s, model)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(wal); err != nil || st.Size() != int64(res.offset) {
				t.Fatalf("wal is %d bytes after recovery, accepted prefix is %d (%v)", st.Size(), res.offset, err)
			}
		}

		// As a snapshot file: only puts count.
		model = map[string]string{}
		for _, r := range recs {
			if r.op == opPut {
				model[r.key] = r.val
			}
		}
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("open snapshot: %v", err)
		}
		assertHolds(t, s, model)
		s.Close()
	})
}

// assertHolds checks that the store's ordered listing is sorted and
// names exactly the model's keys with the model's values.
func assertHolds(t *testing.T, s *Store, model map[string]string) {
	t.Helper()
	keys := s.Keys("")
	if !slices.IsSorted(keys) || len(keys) != len(model) || s.Len() != len(model) {
		t.Fatalf("Keys(\"\") = %q (Len %d), model holds %d keys", keys, s.Len(), len(model))
	}
	for _, k := range keys {
		v, err := s.Get(k)
		if want, ok := model[k]; err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v; model %q (present %v)", k, v, err, want, ok)
		}
	}
}

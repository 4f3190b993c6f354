package kvstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walImage frames records the way a checkpoint's body and a pre-journal
// wal.log do.
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

// encodeImage frames the image of keys (in ascending order) as a
// checkpoint at w.
func encodeImage(keys []string, mem map[string][]byte, w uint64) []byte {
	items := make([]Entry, len(keys))
	for i, k := range keys {
		items[i] = Entry{Key: k, Val: mem[k]}
	}
	var buf bytes.Buffer
	writeImage(&buf, items, w)
	return buf.Bytes()
}

// FuzzReplay feeds arbitrary bytes to the record decoder and, as a
// checkpoint file, to Open. The seeds are the images the recovery tests
// build by hand — a clean record stream, a torn tail, a flipped CRC
// byte, a stream cut mid-record — plus whole checkpoints, two of them
// with keys out of order or repeated.
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
	f.Add(encodeImage(nil, nil, 0))
	f.Add(encodeImage([]string{"a", "b\x00"}, map[string][]byte{"a": []byte("1"), "b\x00": nil}, 42))
	f.Add(encodeImage([]string{"b", "a"}, map[string][]byte{"a": []byte("1"), "b": []byte("2")}, 7))
	f.Add(encodeImage([]string{"a", "a"}, map[string][]byte{"a": []byte("1")}, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			op       byte
			key, val string
		}
		var recs []rec
		res := replayRecords(data, func(op byte, key, val []byte) {
			recs = append(recs, rec{op, string(key), string(val)})
		})
		if res.offset > len(data) || res.count != len(recs) {
			t.Fatalf("replay of %d bytes: offset %d, count %d, %d records", len(data), res.offset, res.count, len(recs))
		}
		count := func(b []byte) int { return replayRecords(b, func(byte, []byte, []byte) {}).count }
		// What was accepted stands on its own, and its last record is
		// accepted only whole and only with its checksum intact.
		good := slices.Clone(data[:res.offset])
		if r := replayRecords(good, func(byte, []byte, []byte) {}); r != res {
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

		// As a checkpoint: Open accepts the file only whole — every byte
		// a record, the puts in strictly ascending key order, the last
		// record a trailer counting them — and then holds exactly what
		// the records say.
		dir := t.TempDir()
		snap := filepath.Join(dir, "snapshot.db")
		open := func(b []byte) (*Store, error) {
			if err := os.WriteFile(snap, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return Open(dir)
		}
		s, err := open(data)
		whole := res.offset == len(data) && len(recs) > 0 && recs[len(recs)-1].op == opTrailer
		for i, r := range recs[:max(len(recs)-1, 0)] {
			whole = whole && r.op == opPut && (i == 0 || r.key > recs[i-1].key)
		}
		if whole {
			tr := []byte(recs[len(recs)-1].val)
			whole = recs[len(recs)-1].key == "" && len(tr) == 16 && binary.LittleEndian.Uint64(tr) == uint64(len(recs)-1)
		}
		if (err == nil) != whole {
			t.Fatalf("Open of a %d-byte checkpoint: err %v, whole %v", len(data), err, whole)
		}
		if err != nil {
			return
		}
		model := map[string]string{}
		for _, r := range recs[:len(recs)-1] {
			model[r.key] = r.val
		}
		assertHolds(t, s, model)
		if w := binary.LittleEndian.Uint64([]byte(recs[len(recs)-1].val)[8:]); s.Watermark() != w {
			t.Fatalf("Watermark = %d, trailer says %d", s.Watermark(), w)
		}
		s.Close()
		// Torn anywhere, or with a bit flipped in the trailer, it is
		// refused.
		for _, cut := range []int{0, len(data) / 2, len(data) - 1} {
			if s, err := open(data[:cut]); err == nil {
				s.Close()
				t.Fatalf("checkpoint torn at %d of %d bytes accepted", cut, len(data))
			}
		}
		flip := slices.Clone(data)
		flip[len(flip)-1] ^= 0x80
		if s, err := open(flip); err == nil {
			s.Close()
			t.Fatal("checkpoint with a flipped bit accepted")
		}
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

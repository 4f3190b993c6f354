package api

import (
	"errors"
	"reflect"
	"testing"
)

// ShardOf is part of the wire contract: server, SDK and tooling must
// compute identical placement forever. These golden values pin the
// hash — if this test fails, the change breaks every existing data
// dir's shard map, not just this build.
func TestShardOfGolden(t *testing.T) {
	cases := []struct {
		owner string
		count int
		want  int
	}{
		{"alice", 2, 1}, {"alice", 4, 3}, {"alice", 7, 1},
		{"bob", 2, 0}, {"bob", 4, 0}, {"bob", 7, 2},
		{"carol", 2, 0}, {"carol", 4, 2}, {"carol", 7, 6},
		{"u0042", 2, 0}, {"u0042", 4, 2}, {"u0042", 7, 0},
		{"conf-chair", 2, 1}, {"conf-chair", 4, 3}, {"conf-chair", 7, 6},
		{"马伟", 2, 0}, {"马伟", 4, 2}, {"马伟", 7, 0},
		{"", 2, 1}, {"", 4, 1}, {"", 7, 2},
	}
	for _, c := range cases {
		if got := ShardOf(c.owner, c.count); got != c.want {
			t.Errorf("ShardOf(%q, %d) = %d, want %d — the placement hash is frozen by the wire contract",
				c.owner, c.count, got, c.want)
		}
	}
	for _, count := range []int{0, 1, -3} {
		if got := ShardOf("anyone", count); got != 0 {
			t.Errorf("ShardOf(anyone, %d) = %d, want 0 for degenerate counts", count, got)
		}
	}
}

func TestPaperOwner(t *testing.T) {
	if got := PaperOwner(Paper{ID: "p1", Authors: []string{"ada", "bob"}}); got != "ada" {
		t.Errorf("PaperOwner with authors = %q, want first author", got)
	}
	if got := PaperOwner(Paper{ID: "p1"}); got != "p1" {
		t.Errorf("PaperOwner without authors = %q, want paper ID", got)
	}
}

func TestShardCursorRoundTrip(t *testing.T) {
	bounds := []uint64{0, 17, 3, 900719925474099}
	cur := EncodeShardCursor(bounds)
	got, err := DecodeShardCursor(cur, len(bounds))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, bounds) {
		t.Fatalf("round trip: got %v, want %v", got, bounds)
	}

	empty, err := DecodeShardCursor("", 3)
	if err != nil || !reflect.DeepEqual(empty, []uint64{0, 0, 0}) {
		t.Fatalf("empty cursor: got %v, %v; want zero vector", empty, err)
	}
}

// garbageShardCursors are tokens DecodeShardCursor must reject at any
// shard count; they also seed FuzzDecodeShardCursor.
var garbageShardCursors = []string{"not-base64!!", "djE6NTA", EncodeShardCursor(nil)[:4]}

func TestShardCursorRejectsMismatchAndGarbage(t *testing.T) {
	cur := EncodeShardCursor([]uint64{1, 2, 3})
	if _, err := DecodeShardCursor(cur, 4); !errors.Is(err, ErrBadCursor) {
		t.Errorf("wrong shard count: err = %v, want ErrBadCursor", err)
	}
	for _, bad := range garbageShardCursors {
		if _, err := DecodeShardCursor(bad, 2); !errors.Is(err, ErrBadCursor) {
			t.Errorf("garbage %q: err = %v, want ErrBadCursor", bad, err)
		}
	}
}

// FuzzDecodeShardCursor: the s1: vector cursor every feed page carries
// (n = 1 included). No token panics the decoder; an accepted one holds
// exactly one bound per shard, survives re-encoding, and decodes at no
// other shard count.
func FuzzDecodeShardCursor(f *testing.F) {
	for _, c := range garbageShardCursors {
		f.Add(c, uint8(2))
	}
	f.Add(EncodeShardCursor([]uint64{1, 2, 3}), uint8(3))
	f.Add(EncodeShardCursor([]uint64{1, 2, 3}), uint8(4))
	f.Add(EncodeShardCursor([]uint64{7}), uint8(1))
	f.Add(EncodeShardCursor([]uint64{0, 17, 3, 900719925474099}), uint8(4))
	f.Fuzz(func(t *testing.T, s string, count uint8) {
		shards := int(count%64) + 1 // a deployment has 1..64 shards
		bounds, err := DecodeShardCursor(s, shards)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("DecodeShardCursor(%q, %d) err = %v, want ErrBadCursor", s, shards, err)
			}
			return
		}
		if len(bounds) != shards {
			t.Fatalf("DecodeShardCursor(%q, %d) = %d bounds", s, shards, len(bounds))
		}
		if again, err := DecodeShardCursor(EncodeShardCursor(bounds), shards); err != nil || !reflect.DeepEqual(again, bounds) {
			t.Fatalf("DecodeShardCursor(%q, %d) = %v, re-encoded decodes to (%v, %v)", s, shards, bounds, again, err)
		}
		if s == "" {
			return // the empty cursor is the first page at every shard count
		}
		for other := 1; other <= 65; other++ {
			if _, err := DecodeShardCursor(s, other); other != shards && err == nil {
				t.Fatalf("%d-shard cursor %q also decodes at %d shards", shards, s, other)
			}
		}
	})
}

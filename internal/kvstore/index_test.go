package kvstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// checkIndex verifies the structural invariants of the tree — every key
// inside its separators, all leaves at one depth, node sizes in bound,
// every leaf whole (see check), the leaf chain linked both ways in tree
// order, the count of live keys — and returns the keys in chain order.
func checkIndex(t *testing.T, ix *keyIndex) []string {
	t.Helper()
	var leaves []*node
	leafDepth := -1
	var walk func(n *node, lo, hi string, hasLo, hasHi bool, depth int)
	walk = func(n *node, lo, hi string, hasLo, hasHi bool, depth int) {
		keys := n.keys
		if n.kids == nil {
			if err := n.check(); err != nil {
				t.Fatal(err)
			}
			keys = n.leafKeys()
		}
		if !slices.IsSorted(keys) {
			t.Fatalf("node keys out of order: %q", keys)
		}
		for _, k := range keys {
			if (hasLo && k < lo) || (hasHi && k >= hi) {
				t.Fatalf("key %q outside its separators [%q, %q)", k, lo, hi)
			}
		}
		if n.size() > maxNode {
			t.Fatalf("node holds %d entries, max %d", n.size(), maxNode)
		}
		if n.kids == nil {
			if leafDepth == -1 {
				leafDepth = depth
			}
			if depth != leafDepth {
				t.Fatalf("leaf at depth %d, others at %d", depth, leafDepth)
			}
			leaves = append(leaves, n)
			return
		}
		if len(n.keys) != len(n.kids)-1 {
			t.Fatalf("inner node: %d separators for %d children", len(n.keys), len(n.kids))
		}
		for i, kid := range n.kids {
			klo, khi, kHasLo, kHasHi := lo, hi, hasLo, hasHi
			if i > 0 {
				klo, kHasLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				khi, kHasHi = n.keys[i], true
			}
			walk(kid, klo, khi, kHasLo, kHasHi, depth+1)
		}
	}
	walk(ix.root, "", "", false, false, 0)
	var keys []string
	for i, leaf := range leaves {
		var prev, next *node
		if i > 0 {
			prev = leaves[i-1]
		}
		if i < len(leaves)-1 {
			next = leaves[i+1]
		}
		if leaf.prev != prev || leaf.next != next {
			t.Fatalf("leaf %d of %d: chain does not follow tree order", i, len(leaves))
		}
		keys = append(keys, leaf.leafKeys()...)
	}
	if len(keys) != ix.len {
		t.Fatalf("index counts %d keys, holds %d", ix.len, len(keys))
	}
	return keys
}

func (n *node) leafKeys() []string {
	keys := make([]string, len(n.ents))
	for i := range keys {
		keys[i] = n.key(i)
	}
	return keys
}

// check verifies the invariants of leaf n: at most maxNode entries,
// keys strictly ascending and each found by search at its position,
// records disjoint inside the arena and covering all of it but the dead
// bytes, and no more dead bytes than live ones (a leaf with more is
// rewritten).
func (n *node) check() error {
	if len(n.ents) > maxNode {
		return fmt.Errorf("leaf holds %d entries, max %d", len(n.ents), maxNode)
	}
	live := 0
	spans := slices.DeleteFunc(slices.Clone(n.ents), func(e ent) bool { return e.klen+e.vlen == 0 })
	slices.SortFunc(spans, func(a, b ent) int { return int(a.off) - int(b.off) })
	for i, e := range spans {
		if end := int(e.off + e.klen + e.vlen); end > len(n.data) || (i > 0 && e.off < spans[i-1].off+spans[i-1].klen+spans[i-1].vlen) {
			return fmt.Errorf("leaf record %+v overlaps another or leaves the %d-byte arena", e, len(n.data))
		}
		live += int(e.klen + e.vlen)
	}
	if live+n.dead != len(n.data) || n.dead > live {
		return fmt.Errorf("leaf arena of %d bytes: %d live, %d counted dead", len(n.data), live, n.dead)
	}
	for i := range n.ents {
		if i > 0 && n.key(i-1) >= n.key(i) {
			return fmt.Errorf("leaf keys %q and %q out of order", n.key(i-1), n.key(i))
		}
		if j, found := n.search(n.key(i)); j != i || !found {
			return fmt.Errorf("leaf search for %q (entry %d) answers %d, %v", n.key(i), i, j, found)
		}
	}
	return nil
}

// The index against a sorted-map oracle through growth to several
// levels, shrinkage back to almost nothing and regrowth, so that leaf
// and inner splits, merges and root collapse all happen.
func TestIndexModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := buildIndex(nil)
		model := map[string]string{}
		key := func() string { return fmt.Sprintf("k%05d", rng.Intn(12000)) }
		verify := func(when string) {
			got := checkIndex(t, &ix)
			want := slices.Sorted(maps.Keys(model))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d %s: index holds %d keys, model %d", seed, when, len(got), len(want))
			}
			ix.ascend("", func(k string, v []byte) bool {
				if string(v) != model[k] {
					t.Fatalf("seed %d %s: %q holds %q, model %q", seed, when, k, v, model[k])
				}
				return true
			})
		}
		// pInsert is the share of inserts in each phase.
		for phase, pInsert := range []float64{0.9, 0.08, 0.7, 0.0} {
			for step := 0; step < 20000; step++ {
				k := key()
				if rng.Float64() < pInsert {
					v := fmt.Sprint(step)
					ix.put(k, []byte(v))
					model[k] = v
				} else {
					ix.delete(k)
					delete(model, k)
				}
				if step%2500 == 0 {
					verify(fmt.Sprintf("phase %d step %d", phase, step))
				}
			}
			verify(fmt.Sprintf("after phase %d", phase))
		}
		// Bulk load must produce the same shape guarantees.
		items := make([]Entry, 0, 9000)
		keys := make([]string, 0, 9000)
		for i := 0; i < 9000; i++ {
			items = append(items, Entry{Key: fmt.Sprintf("k%05d", i), Val: []byte{byte(i)}})
			keys = append(keys, items[i].Key)
		}
		ix = buildIndex(items)
		if got := checkIndex(t, &ix); !slices.Equal(got, keys) {
			t.Fatalf("bulk load holds %d keys, want %d", len(got), len(keys))
		}
		for _, it := range items {
			if v, ok := ix.get(it.Key); !ok || !bytes.Equal(v, it.Val) {
				t.Fatalf("bulk load: %q holds %v, want %v", it.Key, v, it.Val)
			}
		}
	}
}

// modelKey draws keys that share prefixes, nest, and include the empty
// key and 0xff bytes (the case prefixEnd has to carry over).
func modelKey(rng *rand.Rand) string {
	heads := []string{"", "a/", "a/b/", "ab", "b/", "user/", "\xff", "\xff\xff"}
	const tail = "ab/\x00\xff"
	k := heads[rng.Intn(len(heads))]
	for n := rng.Intn(4); n > 0; n-- {
		k += string(tail[rng.Intn(len(tail))])
	}
	return k
}

// oracle answers every range read by filter-and-sort over a plain map.
type oracle map[string]string

func (m oracle) ascending(prefix, from string) []string {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, prefix) && k >= from {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (m oracle) descending(prefix, before string, limit int) []string {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, prefix) && (before == "" || k < before) {
			keys = append(keys, k)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	return keys
}

// assertReads compares every range read of s under prefix with the
// oracle, full and stopped early.
func assertReads(t *testing.T, rng *rand.Rand, s *Store, m oracle, prefix string) {
	t.Helper()
	want := m.ascending(prefix, "")
	stop := 0 // deliveries after which the callback stops; 0 = never
	if len(want) > 0 && rng.Intn(2) == 0 {
		stop = 1 + rng.Intn(len(want))
	}
	expect := func(keys []string) []string {
		if stop > 0 && len(keys) > stop {
			return keys[:stop]
		}
		return keys
	}

	var got []string
	s.Scan(prefix, func(k string, v []byte) bool {
		if string(v) != m[k] {
			t.Fatalf("Scan(%q): %q = %q, want %q", prefix, k, v, m[k])
		}
		got = append(got, k)
		return len(got) != stop
	})
	if !slices.Equal(got, expect(want)) {
		t.Fatalf("Scan(%q) stop=%d = %q, want %q", prefix, stop, got, expect(want))
	}
	if got := s.Keys(prefix); !slices.Equal(got, want) {
		t.Fatalf("Keys(%q) = %q, want %q", prefix, got, want)
	}

	from := ""
	if rng.Intn(3) > 0 {
		from = modelKey(rng)
	}
	want = m.ascending(prefix, from)
	got = nil
	s.AscendKeys(prefix, from, func(k string) bool {
		got = append(got, k)
		return len(got) != stop
	})
	if !slices.Equal(got, expect(want)) {
		t.Fatalf("AscendKeys(%q, %q) stop=%d = %q, want %q", prefix, from, stop, got, expect(want))
	}

	limit := rng.Intn(6)
	if got, want := s.DescendKeys(prefix, from, limit), m.descending(prefix, from, limit); !slices.Equal(got, want) {
		t.Fatalf("DescendKeys(%q, %q, %d) = %q, want %q", prefix, from, limit, got, want)
	}
}

// Model-based property test: seeded random writes of every kind, a
// snapshot import, compaction and close-and-reopen against a map oracle;
// after every step every range read must equal filter-and-sort over the
// oracle. Readers run beside the writer so that -race sees the lock
// discipline of the chunked scan.
func TestStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			// m is the image; disk holds the image at the last checkpoint
			// (or import), which is what a reopen comes back to.
			m, disk := oracle{}, oracle{}
			var pos uint64

			var cur atomic.Pointer[Store]
			cur.Store(s)
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(rng *rand.Rand) {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						concurrentRead(t, rng, cur.Load())
					}
				}(rand.New(rand.NewSource(seed*100 + int64(r))))
			}
			defer readers.Wait()
			defer close(stop)

			val := func() string { return fmt.Sprintf("v%d", rng.Intn(1000)) }
			batch := func() *Batch {
				b := NewBatch()
				for n := 1 + rng.Intn(5); n > 0; n-- {
					if k := modelKey(rng); rng.Intn(3) == 0 {
						b.Delete(k)
					} else {
						b.Put(k, []byte(val()))
					}
				}
				for k, v := range b.puts {
					m[k] = string(v)
				}
				for k := range b.deletes {
					delete(m, k)
				}
				return b
			}
			for step := 0; step < 300; step++ {
				var err error
				switch op := rng.Intn(100); {
				case op < 45:
					k, v := modelKey(rng), val()
					err = s.Put(k, []byte(v))
					m[k] = v
				case op < 65:
					k := modelKey(rng)
					err = s.Delete(k)
					delete(m, k)
				case op < 80:
					err = s.Apply(batch())
				case op < 88:
					err = s.ApplyQuiet(batch())
				case op < 92:
					// A fresh image, large enough for inner nodes
					// (TestIndexModel grows the deeper trees).
					img := map[string][]byte{}
					clear(m)
					for n := rng.Intn(800); n > 0; n-- {
						k, v := modelKey(rng)+fmt.Sprint(rng.Intn(500)), val()
						img[k], m[k] = []byte(v), v
					}
					pos++
					err = s.ImportSnapshot(image(img), pos, nil)
					disk = maps.Clone(m)
				case op < 96:
					pos++
					err = s.Checkpoint(func() (uint64, bool) { return pos, true })
					disk = maps.Clone(m)
				default:
					if err = s.Close(); err == nil {
						s, err = Open(dir)
						cur.Store(s)
						m = maps.Clone(disk)
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if s.Len() != len(m) {
					t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(m))
				}
				assertReads(t, rng, s, m, "")
				assertReads(t, rng, s, m, "\xff\xff\xff\xff") // past the last key
				for n := 0; n < 3; n++ {
					assertReads(t, rng, s, m, modelKey(rng))
				}
			}
			if got := checkIndex(t, &s.idx); !slices.Equal(got, m.ascending("", "")) {
				t.Fatalf("index and model disagree at the end")
			}
		})
	}
}

// concurrentRead checks what a range read promises while writes go on
// beside it: keys under the prefix, inside the bounds, strictly ordered.
func concurrentRead(t *testing.T, rng *rand.Rand, s *Store) {
	prefix, bound := modelKey(rng), modelKey(rng)
	last, first := "", true
	ordered := func(k string, ascending bool) {
		if !strings.HasPrefix(k, prefix) {
			t.Errorf("read under %q delivered %q", prefix, k)
		}
		if !first && ((ascending && k <= last) || (!ascending && k >= last)) {
			t.Errorf("read under %q: %q after %q", prefix, k, last)
		}
		last, first = k, false
	}
	switch rng.Intn(3) {
	case 0:
		s.Scan(prefix, func(k string, _ []byte) bool { ordered(k, true); return true })
	case 1:
		s.AscendKeys(prefix, bound, func(k string) bool {
			if k < bound {
				t.Errorf("AscendKeys from %q delivered %q", bound, k)
			}
			ordered(k, true)
			return rng.Intn(40) > 0
		})
	default:
		for _, k := range s.DescendKeys(prefix, bound, rng.Intn(8)) {
			if bound != "" && k >= bound {
				t.Errorf("DescendKeys before %q delivered %q", bound, k)
			}
			ordered(k, false)
		}
	}
}

// A range read may examine the keys it delivers and the one that ends
// it, nothing else: this is what fails if a walk over the whole store
// ever comes back.
func TestRangeReadsStayInRange(t *testing.T) {
	s := openTemp(t)
	img := map[string][]byte{}
	for i := 0; i < 5000; i++ {
		img[fmt.Sprintf("a/%04d", i)] = []byte("x")
		img[fmt.Sprintf("z/%04d", i)] = []byte("x")
	}
	for i := 0; i < 10; i++ {
		img[fmt.Sprintf("m/%d", i)] = []byte("x")
	}
	if err := s.ImportSnapshot(image(img), 0, nil); err != nil {
		t.Fatal(err)
	}
	examined := func(read func()) int64 {
		before := s.examined.Load()
		read()
		return s.examined.Load() - before
	}
	all := func(string, []byte) bool { return true }
	for _, tc := range []struct {
		name string
		max  int64
		read func()
	}{
		{"Scan of a 10-key prefix", 11, func() { s.Scan("m/", all) }},
		{"Keys of a 10-key prefix", 11, func() { s.Keys("m/") }},
		{"AscendKeys from a bound", 4, func() { s.AscendKeys("m/", "m/7", func(string) bool { return true }) }},
		{"DescendKeys", 11, func() { s.DescendKeys("m/", "", 0) }},
		{"DescendKeys with a limit", 3, func() { s.DescendKeys("m/", "", 3) }},
		{"DescendKeys before a bound", 4, func() { s.DescendKeys("m/", "m/3", 0) }},
		{"Scan of an absent prefix", 1, func() { s.Scan("n/", all) }},
		{"Scan past the last key", 0, func() { s.Scan("zz", all) }},
		{"Scan of 5000 keys stopped after 2", scanChunkMin, func() {
			n := 0
			s.Scan("a/", func(string, []byte) bool { n++; return n < 2 })
		}},
	} {
		if got := examined(tc.read); got > tc.max {
			t.Errorf("%s examined %d keys, want at most %d", tc.name, got, tc.max)
		}
	}
}

// The callback runs outside the store lock: it may read and write the
// store it is scanning.
func TestScanCallbackMayUseStore(t *testing.T) {
	s := openTemp(t)
	for i := 0; i < 3*scanChunkMin; i++ {
		_ = s.Put(fmt.Sprintf("k/%03d", i), []byte("v"))
	}
	n := 0
	s.Scan("k/", func(k string, _ []byte) bool {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("Get(%q) inside Scan: %v", k, err)
		}
		if err := s.Put("seen/"+k, nil); err != nil {
			t.Fatal(err)
		}
		n++
		return true
	})
	if n != 3*scanChunkMin || len(s.Keys("seen/")) != n {
		t.Fatalf("scan delivered %d keys, %d marked", n, len(s.Keys("seen/")))
	}
}

var scanSink int

// BenchmarkScanPrefix reads a 10-key prefix out of stores of growing
// size: with an ordered index the cost does not depend on the size.
func BenchmarkScanPrefix(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s, err := Open("")
			if err != nil {
				b.Fatal(err)
			}
			img := map[string][]byte{}
			for i := 0; i < n; i++ {
				img[fmt.Sprintf("paper/%07d", i)] = []byte(`{"id":"p","title":"t"}`)
			}
			for i := 0; i < 10; i++ {
				img[fmt.Sprintf("follow/u1/u%d", i)] = nil
			}
			if err := s.ImportSnapshot(image(img), 0, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Scan("follow/u1/", func(string, []byte) bool { scanSink++; return true })
			}
		})
	}
}

// benchImage returns an in-memory store holding n keys of the shape the
// social store writes, and the keys in random order.
func benchImage(b *testing.B, n int) (*Store, []string) {
	s, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	img := make(map[string][]byte, n)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("comment/c%07d", i)
		img[k] = []byte(`{"id":"c","author":"u001","target":"p001","text":"a comment body"}`)
		keys = append(keys, k)
	}
	if err := s.ImportSnapshot(image(img), 0, nil); err != nil {
		b.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return s, keys
}

// BenchmarkGet reads present keys in random order: a seek down the tree
// whose leaves hold the values.
func BenchmarkGet(b *testing.B) {
	for _, n := range []int{30_000, 300_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s, keys := benchImage(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointCapture times what a checkpoint holds the read lock
// for, and so what writers wait on: collecting the whole image.
func BenchmarkCheckpointCapture(b *testing.B) {
	for _, n := range []int{250_000, 470_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s, _ := benchImage(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, _, ok, err := s.Image(func() (uint64, bool) { return 1, true })
				if err != nil || !ok || len(items) != n {
					b.Fatalf("captured %d items, ok %v, err %v", len(items), ok, err)
				}
			}
		})
	}
}

// fuzzHeads are the stems of the keys FuzzIndexOps draws: event keys
// with long shared prefixes that differ late, stems that are prefixes of
// one another (so an insert can shorten a leaf's prefix), the empty key
// and 0x00 and 0xff bytes.
var fuzzHeads = []string{"", "evactor/u001/00000000000000", "evactor/u001/00000000000001",
	"evactor/u002/00000000000000", "evactor/", "follow/u001/", "\x00", "\xff\xff"}

// FuzzIndexOps checks the whole index after every op, so a program is
// cut at fuzzMaxOps ops and runs stop inserting at fuzzMaxKeys keys:
// inputs stay fast enough for the fuzzer not to take them for hangs.
const fuzzMaxOps, fuzzMaxKeys = 400, 1000

// fuzzKey is a stem followed by up to three bytes of a small alphabet.
func fuzzKey(a, b byte) string {
	const tail = "\x000189a/\xff"
	k := fuzzHeads[a%8]
	for n, x := int(a/8)%4, int(b); n > 0; n, x = n-1, x/8 {
		k += tail[x%8 : x%8+1]
	}
	return k
}

// FuzzIndexOps runs an op program decoded from the input, three bytes an
// op, against the index and a sorted-map oracle: put, put of a run of
// sequential event keys, overwrite, delete, get, ascend from a bound,
// descend before one, and image capture. After every op the tree and
// its leaves must pass checkIndex and hold the oracle's keys, every read
// must answer as the oracle does, and every value an earlier image
// captured must still read as it did: arena bytes are never written
// twice.
func FuzzIndexOps(f *testing.F) {
	prog := func(ops ...[3]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	// Sequential event keys of three actors, reads across them, then a
	// key that shortens a leaf's prefix, the empty key and 0xff keys.
	f.Add(prog([3]byte{7, 0, 91}, [3]byte{7, 1, 91}, [3]byte{7, 0, 91}, [3]byte{3, 1, 0}, [3]byte{4, 4, 20},
		[3]byte{5, 12, 9}, [3]byte{6, 0, 0}, [3]byte{0, 4, 0}, [3]byte{0, 0, 0}, [3]byte{0, 7, 0}, [3]byte{0, 31, 255},
		[3]byte{1, 0, 17}, [3]byte{2, 0, 3}, [3]byte{6, 0, 0}, [3]byte{5, 0, 255}))
	// A split at exactly maxNode+1: 65 keys into an empty index.
	f.Add(prog([3]byte{7, 0, maxNode}, [3]byte{6, 0, 0}, [3]byte{5, 0, 255}, [3]byte{4, 0, 70}))
	// Growth to 285 keys over several leaves, then deletes of present
	// keys down to five, in one leaf.
	merges := [][3]byte{{7, 0, 94}, {7, 1, 94}, {7, 2, 94}, {6, 0, 0}}
	for i := 0; i < 280; i++ {
		merges = append(merges, [3]byte{2, byte(2 * i), byte(i * 7)})
	}
	f.Add(prog(append(merges, [3]byte{6, 0, 0}, [3]byte{4, 0, 1})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix := buildIndex(nil)
		model := map[string]string{}
		type captured struct {
			key  string
			val  []byte
			want string
		}
		var images []captured
		seq := 0
		for step := 0; step+3 <= min(len(data), 3*fuzzMaxOps); step += 3 {
			op, a, b := data[step]%8, data[step+1], data[step+2]
			keys := slices.Sorted(maps.Keys(model))
			val := fmt.Sprintf("v%d", step) + strings.Repeat("x", int(b%40))
			if b%5 == 0 {
				val = "" // as a secondary-index key's
			}
			switch op {
			case 0:
				k := fuzzKey(a, b)
				ix.put(k, []byte(val))
				model[k] = val
			case 1, 2:
				k := fuzzKey(a, b)
				if len(keys) > 0 && (op == 1 || a%2 == 0) {
					k = keys[(int(a)<<8|int(b))%len(keys)]
				}
				if op == 1 {
					ix.put(k, []byte(val))
					model[k] = val
				} else if had := ix.delete(k); had != (model[k] != "" || slices.Contains(keys, k)) {
					t.Fatalf("op %d: delete(%q) = %v", step/3, k, had)
				} else {
					delete(model, k)
				}
			case 3:
				k := fuzzKey(a, b)
				v, ok := ix.get(k)
				if want, has := model[k]; ok != has || string(v) != want {
					t.Fatalf("op %d: get(%q) = %q, %v; want %q, %v", step/3, k, v, ok, want, has)
				}
			case 4:
				from, limit := fuzzKey(a, b), 1+int(b%24)
				var got []string
				ix.ascend(from, func(k string, v []byte) bool {
					if string(v) != model[k] {
						t.Fatalf("op %d: ascend from %q: %q holds %q, want %q", step/3, from, k, v, model[k])
					}
					got = append(got, k)
					return len(got) < limit
				})
				i, _ := slices.BinarySearch(keys, from)
				if want := keys[i:min(i+limit, len(keys))]; !slices.Equal(got, want) {
					t.Fatalf("op %d: ascend from %q = %q, want %q", step/3, from, got, want)
				}
			case 5:
				before, limit, unbounded := fuzzKey(a, b), 1+int(a%24), b == 255
				var got []string
				ix.descend(before, unbounded, func(k string) bool {
					got = append(got, k)
					return len(got) < limit
				})
				i := len(keys)
				if !unbounded {
					i, _ = slices.BinarySearch(keys, before)
				}
				want := slices.Clone(keys[max(0, i-limit):i])
				slices.Reverse(want)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: descend before %q (unbounded %v) = %q, want %q", step/3, before, unbounded, got, want)
				}
			case 6:
				ix.ascend("", func(k string, v []byte) bool {
					images = append(images, captured{k, v, model[k]})
					return true
				})
			case 7:
				for n := 1 + int(b%96); n > 0 && len(model) < fuzzMaxKeys; n-- {
					k, v := fmt.Sprintf("evactor/u%03d/%016x", a%4, seq), val
					if v != "" {
						v += fmt.Sprint(seq) // distinct, so a byte written twice shows
					}
					seq++
					ix.put(k, []byte(v))
					model[k] = v
				}
			}
			if got, want := checkIndex(t, &ix), slices.Sorted(maps.Keys(model)); !slices.Equal(got, want) {
				t.Fatalf("op %d (%d): index holds %q, model %q", step/3, op, got, want)
			}
			for _, c := range images {
				if string(c.val) != c.want {
					t.Fatalf("op %d: the value %q captured for %q now reads %q", step/3, c.want, c.key, c.val)
				}
			}
		}
	})
}

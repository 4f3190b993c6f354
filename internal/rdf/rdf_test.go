package rdf

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// adder is what the tests feed triples to: a Builder, or the oracle.
type adder interface{ Add(Triple) error }

func add(t *testing.T, st adder, s, p, o string, w float64) {
	t.Helper()
	if err := st.Add(Triple{s, p, o, w}); err != nil {
		t.Fatalf("Add(%s %s %s %v): %v", s, p, o, w, err)
	}
}

func TestAddAndWeight(t *testing.T) {
	b := NewBuilder()
	add(t, b, "alice", "coauthor", "bob", 0.8)
	st := b.Freeze()
	w, ok := st.Weight("alice", "coauthor", "bob")
	if !ok || w != 0.8 {
		t.Fatalf("Weight = %v, %v", w, ok)
	}
	if _, ok := st.Weight("bob", "coauthor", "alice"); ok {
		t.Fatal("reverse triple should not exist")
	}
}

func TestAddKeepsMaxWeight(t *testing.T) {
	b := NewBuilder()
	add(t, b, "a", "p", "b", 0.5)
	add(t, b, "a", "p", "b", 0.3)
	if w, _ := b.Freeze().Weight("a", "p", "b"); w != 0.5 {
		t.Fatalf("weight lowered to %v", w)
	}
	add(t, b, "a", "p", "b", 0.9)
	st := b.Freeze()
	if w, _ := st.Weight("a", "p", "b"); w != 0.9 {
		t.Fatalf("weight not raised: %v", w)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestAddValidation(t *testing.T) {
	st := NewBuilder()
	if err := st.Add(Triple{"", "p", "o", 1}); !errors.Is(err, ErrBadTriple) {
		t.Fatalf("empty subject err = %v", err)
	}
	if err := st.Add(Triple{"s", "p", "o", 0}); !errors.Is(err, ErrBadTriple) {
		t.Fatalf("zero weight err = %v", err)
	}
	if err := st.Add(Triple{"s", "p", "o", -1}); !errors.Is(err, ErrBadTriple) {
		t.Fatalf("negative weight err = %v", err)
	}
	// Overweight clamps to 1.
	if err := st.Add(Triple{"s", "p", "o", 5}); err != nil {
		t.Fatal(err)
	}
	if w, _ := st.Freeze().Weight("s", "p", "o"); w != 1 {
		t.Fatalf("weight not clamped: %v", w)
	}
}

var family = []Triple{
	{"alice", "coauthor", "bob", 0.9},
	{"alice", "cites", "paper1", 1},
	{"bob", "cites", "paper1", 1},
	{"bob", "coauthor", "carol", 0.6},
	{"carol", "attends", "edbt13", 1},
	{"alice", "attends", "edbt13", 0.8},
}

// buildFamily loads the family triples into the map-index oracle.
func buildFamily(t *testing.T) *Store {
	t.Helper()
	st := NewStore()
	for _, tr := range family {
		add(t, st, tr.Subject, tr.Predicate, tr.Object, tr.Weight)
	}
	return st
}

func TestMatchAllAccessPatterns(t *testing.T) {
	st := buildFamily(t)
	cases := []struct {
		name string
		p    Pattern
		want int
	}{
		{"spo exact", Pattern{Subject: "alice", Predicate: "coauthor", Object: "bob"}, 1},
		{"sp", Pattern{Subject: "alice", Predicate: "cites"}, 1},
		{"so", Pattern{Subject: "alice", Object: "edbt13"}, 1},
		{"po", Pattern{Predicate: "cites", Object: "paper1"}, 2},
		{"s", Pattern{Subject: "alice"}, 3},
		{"p", Pattern{Predicate: "coauthor"}, 2},
		{"o", Pattern{Object: "edbt13"}, 2},
		{"all", Pattern{}, 6},
		{"none", Pattern{Subject: "nobody"}, 0},
	}
	for _, c := range cases {
		if got := st.Match(c.p); len(got) != c.want {
			t.Errorf("%s: got %d matches, want %d: %v", c.name, len(got), c.want, got)
		}
	}
}

func TestMatchMinWeight(t *testing.T) {
	st := buildFamily(t)
	got := st.Match(Pattern{Predicate: "coauthor", MinWeight: 0.7})
	if len(got) != 1 || got[0].Subject != "alice" {
		t.Fatalf("MinWeight filter = %v", got)
	}
}

func TestMatchSortedByWeight(t *testing.T) {
	st := buildFamily(t)
	got := st.Match(Pattern{})
	for i := 1; i < len(got); i++ {
		if got[i].Weight > got[i-1].Weight {
			t.Fatalf("not sorted by weight: %v", got)
		}
	}
}

func TestRankedPathsDirect(t *testing.T) {
	b := NewBuilder()
	add(t, b, "a", "p", "b", 0.5)
	st := b.Freeze()
	paths := st.RankedPaths("a", "b", 3, PathOptions{})
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	if paths[0].Score != 0.5 || len(paths[0].Steps) != 1 {
		t.Fatalf("path = %+v", paths[0])
	}
	nodes := paths[0].Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestRankedPathsPrefersStrongIndirect(t *testing.T) {
	b := NewBuilder()
	add(t, b, "a", "weak", "d", 0.2)
	add(t, b, "a", "strong", "b", 0.9)
	add(t, b, "b", "strong", "d", 0.9)
	st := b.Freeze()
	paths := st.RankedPaths("a", "d", 2, PathOptions{})
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	if len(paths[0].Steps) != 2 {
		t.Fatalf("best path should be the 2-hop strong path: %+v", paths[0])
	}
	if diff := paths[0].Score - 0.81; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("best score = %v", paths[0].Score)
	}
}

func TestRankedPathsUndirected(t *testing.T) {
	b := NewBuilder()
	add(t, b, "b", "coauthor", "a", 0.9) // only reachable a->b via reverse
	st := b.Freeze()
	if paths := st.RankedPaths("a", "b", 1, PathOptions{}); len(paths) != 0 {
		t.Fatalf("directed search should fail: %v", paths)
	}
	paths := st.RankedPaths("a", "b", 1, PathOptions{Undirected: true})
	if len(paths) != 1 || paths[0].Steps[0].Forward {
		t.Fatalf("undirected search = %+v", paths)
	}
	nodes := paths[0].Nodes()
	if nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestRankedPathsMaxLength(t *testing.T) {
	b := NewBuilder()
	add(t, b, "a", "p", "b", 1)
	add(t, b, "b", "p", "c", 1)
	add(t, b, "c", "p", "d", 1)
	st := b.Freeze()
	if paths := st.RankedPaths("a", "d", 1, PathOptions{MaxLength: 2}); len(paths) != 0 {
		t.Fatalf("length bound violated: %v", paths)
	}
	if paths := st.RankedPaths("a", "d", 1, PathOptions{MaxLength: 3}); len(paths) != 1 {
		t.Fatalf("path not found within bound: %v", paths)
	}
}

func TestRankedPathsPredicateFilter(t *testing.T) {
	b := NewBuilder()
	add(t, b, "a", "spam", "b", 1)
	add(t, b, "a", "coauthor", "c", 0.5)
	add(t, b, "c", "coauthor", "b", 0.5)
	st := b.Freeze()
	paths := st.RankedPaths("a", "b", 5, PathOptions{Predicates: []string{"coauthor"}})
	if len(paths) != 1 || len(paths[0].Steps) != 2 {
		t.Fatalf("predicate filter failed: %+v", paths)
	}
}

func TestRankedPathsLoopless(t *testing.T) {
	b := NewBuilder()
	add(t, b, "a", "p", "b", 0.9)
	add(t, b, "b", "p", "a", 0.9)
	add(t, b, "b", "p", "c", 0.5)
	st := b.Freeze()
	paths := st.RankedPaths("a", "c", 10, PathOptions{MaxLength: 6})
	for _, p := range paths {
		seen := map[string]bool{}
		for _, n := range p.Nodes() {
			if seen[n] {
				t.Fatalf("loop in path %v", p.Nodes())
			}
			seen[n] = true
		}
	}
}

func TestRankedPathsSelfAndZero(t *testing.T) {
	b := NewBuilder()
	for _, tr := range family {
		add(t, b, tr.Subject, tr.Predicate, tr.Object, tr.Weight)
	}
	st := b.Freeze()
	if p := st.RankedPaths("alice", "alice", 3, PathOptions{}); p != nil {
		t.Fatalf("self paths = %v", p)
	}
	if p := st.RankedPaths("alice", "bob", 0, PathOptions{}); p != nil {
		t.Fatalf("k=0 paths = %v", p)
	}
}

func TestRankedPathsAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	const n = 12
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("n%d", rng.Intn(n))
		o := fmt.Sprintf("n%d", rng.Intn(n))
		if s == o {
			continue
		}
		_ = b.Add(Triple{s, "p", o, 0.1 + 0.9*rng.Float64()})
	}
	st := b.Freeze()
	got := st.RankedPaths("n0", "n5", 1, PathOptions{MaxLength: 4})
	want := st.AllPathsNaive("n0", "n5", 1, 4, false)
	if len(got) != len(want) {
		t.Fatalf("existence disagreement: ranked=%d naive=%d", len(got), len(want))
	}
	if len(got) == 1 {
		if diff := got[0].Score - want[0].Score; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("best score disagreement: ranked=%v naive=%v", got[0].Score, want[0].Score)
		}
	}
}

func TestPropMatchConsistentAcrossIndexes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore()
		type st3 struct{ s, p, o string }
		var all []st3
		for i := 0; i < 30; i++ {
			s := fmt.Sprintf("s%d", rng.Intn(5))
			p := fmt.Sprintf("p%d", rng.Intn(3))
			o := fmt.Sprintf("o%d", rng.Intn(5))
			if err := st.Add(Triple{s, p, o, rng.Float64()*0.9 + 0.1}); err != nil {
				return false
			}
			all = append(all, st3{s, p, o})
		}
		// Every added triple must be reachable through each access path.
		for _, tr := range all {
			if len(st.Match(Pattern{Subject: tr.s, Predicate: tr.p, Object: tr.o})) != 1 {
				return false
			}
			found := false
			for _, m := range st.Match(Pattern{Predicate: tr.p, Object: tr.o}) {
				if m.Subject == tr.s {
					found = true
				}
			}
			if !found {
				return false
			}
			found = false
			for _, m := range st.Match(Pattern{Object: tr.o}) {
				if m.Subject == tr.s && m.Predicate == tr.p {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropRankedPathsSortedAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < 30; i++ {
			s := fmt.Sprintf("n%d", rng.Intn(8))
			o := fmt.Sprintf("n%d", rng.Intn(8))
			if s == o {
				continue
			}
			_ = b.Add(Triple{s, "p", o, rng.Float64()*0.9 + 0.1})
		}
		st := b.Freeze()
		paths := st.RankedPaths("n0", "n7", 5, PathOptions{MaxLength: 4})
		if len(paths) > 5 {
			return false
		}
		for i, p := range paths {
			if p.Score <= 0 || p.Score > 1 {
				return false
			}
			if len(p.Steps) > 4 {
				return false
			}
			if i > 0 && p.Score > paths[i-1].Score+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadWrite reads a frozen KB from several goroutines
// while its builder keeps adding: the KB shares no state with the
// builder, so it neither races nor changes.
func TestConcurrentReadWrite(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 10; i++ {
		_ = b.Add(Triple{fmt.Sprintf("s%d", i), "p", "o", 0.5})
	}
	st := b.Freeze()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if n, paths := st.Len(), st.RankedPaths("s1", "s2", 3, PathOptions{Undirected: true}); n != 10 || len(paths) != 1 {
					t.Errorf("Len = %d, %d paths; want 10 and 1", n, len(paths))
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		_ = b.Add(Triple{fmt.Sprintf("s%d", i%10), "p", "x", 0.5})
	}
	wg.Wait()
}

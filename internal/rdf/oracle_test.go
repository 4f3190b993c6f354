package rdf

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Store is the map-indexed triple store the frozen KB replaced, kept as
// the oracle: a weight map plus SPO, POS and OSP permutation indexes,
// and ranked path search over sorted Match results.
type Store struct {
	weights       map[key]float64
	spo, pos, osp map[string]map[string]map[string]struct{}
}

type key struct{ s, p, o string }

// Pattern matches triples; empty fields are wildcards.
type Pattern struct {
	Subject, Predicate, Object string
	// MinWeight filters out weaker triples; 0 matches all.
	MinWeight float64
}

func NewStore() *Store {
	return &Store{
		weights: map[key]float64{},
		spo:     map[string]map[string]map[string]struct{}{},
		pos:     map[string]map[string]map[string]struct{}{},
		osp:     map[string]map[string]map[string]struct{}{},
	}
}

func (st *Store) Add(t Triple) error {
	if err := NewBuilder().Add(t); err != nil {
		return err
	}
	t.Weight = min(t.Weight, 1)
	k := key{t.Subject, t.Predicate, t.Object}
	if w, ok := st.weights[k]; ok {
		st.weights[k] = max(w, t.Weight)
		return nil
	}
	st.weights[k] = t.Weight
	insert3(st.spo, t.Subject, t.Predicate, t.Object)
	insert3(st.pos, t.Predicate, t.Object, t.Subject)
	insert3(st.osp, t.Object, t.Subject, t.Predicate)
	return nil
}

func insert3(m map[string]map[string]map[string]struct{}, a, b, c string) {
	if m[a] == nil {
		m[a] = map[string]map[string]struct{}{}
	}
	if m[a][b] == nil {
		m[a][b] = map[string]struct{}{}
	}
	m[a][b][c] = struct{}{}
}

func (st *Store) Len() int { return len(st.weights) }

// Match returns all triples matching the pattern, sorted by descending
// weight then lexicographically.
func (st *Store) Match(p Pattern) []Triple {
	var out []Triple
	emit := func(s, pr, o string) {
		if w := st.weights[key{s, pr, o}]; w >= p.MinWeight {
			out = append(out, Triple{s, pr, o, w})
		}
	}
	switch {
	case p.Subject != "" && p.Predicate != "" && p.Object != "":
		if _, ok := st.weights[key{p.Subject, p.Predicate, p.Object}]; ok {
			emit(p.Subject, p.Predicate, p.Object)
		}
	case p.Subject != "" && p.Predicate != "":
		for o := range st.spo[p.Subject][p.Predicate] {
			emit(p.Subject, p.Predicate, o)
		}
	case p.Subject != "" && p.Object != "":
		for pr := range st.osp[p.Object][p.Subject] {
			emit(p.Subject, pr, p.Object)
		}
	case p.Predicate != "" && p.Object != "":
		for s := range st.pos[p.Predicate][p.Object] {
			emit(s, p.Predicate, p.Object)
		}
	case p.Subject != "":
		for pr, objs := range st.spo[p.Subject] {
			for o := range objs {
				emit(p.Subject, pr, o)
			}
		}
	case p.Predicate != "":
		for o, subs := range st.pos[p.Predicate] {
			for s := range subs {
				emit(s, p.Predicate, o)
			}
		}
	case p.Object != "":
		for s, preds := range st.osp[p.Object] {
			for pr := range preds {
				emit(s, pr, p.Object)
			}
		}
	default:
		for k := range st.weights {
			emit(k.s, k.p, k.o)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object < b.Object
	})
	return out
}

type oracleItem struct {
	node  string
	score float64
	steps []PathStep
}

type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }

// Less is the KB frontier's order over strings: higher score, fewer
// steps, then from the last step back the node it reaches, its
// predicate, forward first. Term and predicate IDs order like their
// strings, so this is the order the KB's IDs give.
func (h oracleHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.score != b.score {
		return a.score > b.score
	}
	if len(a.steps) != len(b.steps) {
		return len(a.steps) < len(b.steps)
	}
	reached := func(s PathStep) string {
		if s.Forward {
			return s.Triple.Object
		}
		return s.Triple.Subject
	}
	for n := len(a.steps) - 1; n >= 0; n-- {
		x, y := a.steps[n], b.steps[n]
		switch {
		case reached(x) != reached(y):
			return reached(x) < reached(y)
		case x.Triple.Predicate != y.Triple.Predicate:
			return x.Triple.Predicate < y.Triple.Predicate
		case x.Forward != y.Forward:
			return x.Forward
		}
	}
	return false
}

func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// RankedPaths is best-first ranked path search over the map indexes, as
// the store ran it before the KB.
func (st *Store) RankedPaths(src, dst string, k int, opts PathOptions) []RankedPath {
	if k <= 0 || src == dst {
		return nil
	}
	maxLen := opts.MaxLength
	if maxLen <= 0 {
		maxLen = 4
	}
	allowed := map[string]bool{}
	for _, p := range opts.Predicates {
		allowed[p] = true
	}
	var results []RankedPath
	pq := &oracleHeap{{node: src, score: 1}}
	visits := map[string]int{}
	for pq.Len() > 0 && len(results) < k {
		cur := heap.Pop(pq).(oracleItem)
		if cur.node == dst {
			results = append(results, RankedPath{Steps: cur.steps, Score: cur.score})
			continue
		}
		if len(cur.steps) >= maxLen || visits[cur.node] >= k {
			continue
		}
		visits[cur.node]++
		onPath := map[string]bool{src: true}
		for _, s := range cur.steps {
			if s.Forward {
				onPath[s.Triple.Object] = true
			} else {
				onPath[s.Triple.Subject] = true
			}
		}
		expand := func(t Triple, forward bool, next string) {
			if onPath[next] || len(allowed) > 0 && !allowed[t.Predicate] {
				return
			}
			steps := append(append([]PathStep(nil), cur.steps...), PathStep{Triple: t, Forward: forward})
			heap.Push(pq, oracleItem{node: next, score: cur.score * t.Weight, steps: steps})
		}
		for _, t := range st.Match(Pattern{Subject: cur.node}) {
			expand(t, true, t.Object)
		}
		if opts.Undirected {
			for _, t := range st.Match(Pattern{Object: cur.node}) {
				expand(t, false, t.Subject)
			}
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	return results
}

// TestKBMatchesMapIndexOracle holds the frozen KB's ranked path search
// to the map-index store's on seeded triple sets: the same paths, steps,
// directions and bit-equal scores, directed and undirected, with and
// without a predicate filter. Weights repeat and collide, so ties in the
// frontier are broken by the oracle's path order.
func TestKBMatchesMapIndexOracle(t *testing.T) {
	weights := []float64{1, 0.9, 0.8, 0.7, 0.5}
	preds := []string{"authored", "cites", "connected", "follows"}
	found := 0
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(14)
		b, st := NewBuilder(), NewStore()
		for i := rng.Intn(5 * n); i > 0; i-- {
			tr := Triple{
				fmt.Sprintf("n%d", rng.Intn(n)), preds[rng.Intn(len(preds))],
				fmt.Sprintf("n%d", rng.Intn(n)), weights[rng.Intn(len(weights))],
			}
			if rng.Intn(8) == 0 {
				tr.Weight = rng.Float64()
			}
			_ = b.Add(tr)
			_ = st.Add(tr)
		}
		kb := b.Freeze()
		if kb.Len() != st.Len() {
			t.Fatalf("seed %d: Len = %d, oracle %d", seed, kb.Len(), st.Len())
		}
		for _, tr := range st.Match(Pattern{}) {
			if w, ok := kb.Weight(tr.Subject, tr.Predicate, tr.Object); !ok || w != tr.Weight {
				t.Fatalf("seed %d: Weight(%v) = %v %v", seed, tr, w, ok)
			}
		}
		for q := 0; q < 6; q++ {
			src, dst := fmt.Sprintf("n%d", rng.Intn(n+1)), fmt.Sprintf("n%d", rng.Intn(n+1))
			opts := PathOptions{MaxLength: 1 + rng.Intn(5), Undirected: rng.Intn(2) == 0}
			if rng.Intn(3) == 0 {
				opts.Predicates = []string{preds[rng.Intn(len(preds))], "unknown"}
			}
			k := 1 + rng.Intn(6)
			got, want := kb.RankedPaths(src, dst, k, opts), st.RankedPaths(src, dst, k, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: RankedPaths(%s, %s, %d, %+v)\n got %v\nwant %v", seed, src, dst, k, opts, got, want)
			}
			found += len(want)
		}
	}
	if found < 500 {
		t.Fatalf("only %d paths over all seeds: the triple sets exercise too little", found)
	}
}

// TestRankedPathsIgnoreInsertionOrder: one triple set, added in five
// seeded shuffled orders, answers every seeded query with the same
// paths in the same order. Weights come from two values, so most
// answers hold equal-score paths and k cuts through ties.
func TestRankedPathsIgnoreInsertionOrder(t *testing.T) {
	preds := []string{"authored", "cites", "connected", "follows"}
	ties := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		var triples []Triple
		for i := 2*n + rng.Intn(4*n); i > 0; i-- {
			triples = append(triples, Triple{
				fmt.Sprintf("n%d", rng.Intn(n)), preds[rng.Intn(len(preds))],
				fmt.Sprintf("n%d", rng.Intn(n)), []float64{1, 0.9}[rng.Intn(2)],
			})
		}
		var kbs []*KB
		for order := 0; order < 5; order++ {
			rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
			b := NewBuilder()
			for _, tr := range triples {
				_ = b.Add(tr)
			}
			kbs = append(kbs, b.Freeze())
		}
		for q := 0; q < 8; q++ {
			src, dst := fmt.Sprintf("n%d", rng.Intn(n)), fmt.Sprintf("n%d", rng.Intn(n))
			opts := PathOptions{MaxLength: 2 + rng.Intn(3), Undirected: rng.Intn(3) != 0}
			k := 1 + rng.Intn(4)
			want := kbs[0].RankedPaths(src, dst, k, opts)
			for i := 1; i < len(want); i++ {
				if want[i].Score == want[i-1].Score {
					ties++
				}
			}
			for order, kb := range kbs[1:] {
				if got := kb.RankedPaths(src, dst, k, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d order %d: RankedPaths(%s, %s, %d, %+v)\n got %v\nwant %v", seed, order+1, src, dst, k, opts, got, want)
				}
			}
		}
	}
	if ties < 50 {
		t.Fatalf("only %d tied answer pairs: the triple sets exercise too few ties", ties)
	}
}

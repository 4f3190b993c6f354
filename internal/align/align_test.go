package align

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hive/internal/graph"
)

func layerFromEdges(name string, trust float64, edges [][2]string) *Layer {
	g := graph.NewBuilder()
	for _, e := range edges {
		a := g.EnsureNode(e[0], "concept")
		b := g.EnsureNode(e[1], "concept")
		_ = g.AddUndirected(a, b, "related", 1)
	}
	return &Layer{Name: name, Trust: trust, G: g.Freeze()}
}

func TestLexicalSimilarity(t *testing.T) {
	if s := LexicalSimilarity("graph processing", "graph processing"); s != 1 {
		t.Fatalf("identical = %v", s)
	}
	if s := LexicalSimilarity("graph processing", "processing of graphs"); s < 0.6 {
		t.Fatalf("reordered/inflected = %v, want high", s)
	}
	if s := LexicalSimilarity("tensor streams", "community detection"); s != 0 {
		t.Fatalf("unrelated = %v", s)
	}
	if s := LexicalSimilarity("", "x"); s != 0 {
		t.Fatalf("empty = %v", s)
	}
}

func TestAlignExactAndFuzzy(t *testing.T) {
	a := layerFromEdges("concepts", 1, [][2]string{
		{"graph processing", "partitioning"},
		{"partitioning", "communication"},
	})
	b := layerFromEdges("papers", 1, [][2]string{
		{"graph processing", "partitioning methods"},
		{"partitioning methods", "communication"},
	})
	maps := Align(a, b, Options{})
	got := map[string]string{}
	for _, m := range maps {
		got[m.A] = m.B
		if m.Score <= 0 || m.Score > 1 {
			t.Fatalf("score out of range: %+v", m)
		}
	}
	if got["graph processing"] != "graph processing" {
		t.Fatalf("exact match missing: %v", got)
	}
	if got["partitioning"] != "partitioning methods" {
		t.Fatalf("fuzzy match missing: %v", got)
	}
}

func TestAlignOneToOne(t *testing.T) {
	a := layerFromEdges("a", 1, [][2]string{{"graph", "x"}})
	b := layerFromEdges("b", 1, [][2]string{{"graph", "graphs"}})
	maps := Align(a, b, Options{})
	seenB := map[string]bool{}
	for _, m := range maps {
		if seenB[m.B] {
			t.Fatalf("B node matched twice: %v", maps)
		}
		seenB[m.B] = true
	}
	// "graph" in A must match exactly one of graph/graphs.
	count := 0
	for _, m := range maps {
		if m.A == "graph" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("A node matched %d times", count)
	}
}

func TestAlignStructuralBoost(t *testing.T) {
	// Two B candidates have equal lexical similarity to A's "sigmod";
	// only one shares neighbors. Structure must pick it.
	a := layerFromEdges("a", 1, [][2]string{
		{"sigmod conf", "databases"},
		{"sigmod conf", "indexing"},
	})
	bg := graph.NewBuilder()
	right := bg.EnsureNode("sigmod venue", "concept")
	wrong := bg.EnsureNode("sigmod event", "concept")
	db := bg.EnsureNode("databases", "concept")
	ix := bg.EnsureNode("indexing", "concept")
	other := bg.EnsureNode("cooking", "concept")
	_ = bg.AddUndirected(right, db, "related", 1)
	_ = bg.AddUndirected(right, ix, "related", 1)
	_ = bg.AddUndirected(wrong, other, "related", 1)
	b := &Layer{Name: "b", G: bg.Freeze()}

	maps := Align(a, b, Options{MinLexical: 0.3, MinScore: 0.25})
	for _, m := range maps {
		if m.A == "sigmod conf" {
			if m.B != "sigmod venue" {
				t.Fatalf("structure ignored: matched %q", m.B)
			}
			return
		}
	}
	t.Fatal("sigmod not aligned at all")
}

// alignAllPairs is the reference Align: it scores every pair of keys
// with LexicalSimilarity, in A's then B's node order.
func alignAllPairs(a, b *Layer, opts Options) []Mapping {
	opts = opts.withDefaults()
	type cand struct {
		a, b string
		lex  float64
	}
	var cands []cand
	anchors := map[string]string{}
	var bKeys []string
	b.G.Nodes(func(n graph.Node) bool {
		bKeys = append(bKeys, n.Key)
		return true
	})
	a.G.Nodes(func(n graph.Node) bool {
		for _, bk := range bKeys {
			lex := LexicalSimilarity(n.Key, bk)
			if lex >= opts.MinLexical {
				cands = append(cands, cand{n.Key, bk, lex})
				if lex == 1 {
					anchors[n.Key] = bk
				}
			}
		}
		return true
	})
	neighborsOf := func(l *Layer, key string) map[string]bool {
		out := map[string]bool{}
		for _, nb := range l.G.Neighbors(l.G.Lookup(key)) {
			if n, err := l.G.Node(nb); err == nil {
				out[n.Key] = true
			}
		}
		return out
	}
	var mappings []Mapping
	for _, c := range cands {
		na, nb := neighborsOf(a, c.a), neighborsOf(b, c.b)
		inter, denom := 0, 0
		for ak := range na {
			if bk, ok := anchors[ak]; ok {
				denom++
				if nb[bk] {
					inter++
				}
			}
		}
		structural := 0.0
		if denom > 0 {
			structural = float64(inter) / float64(denom)
		}
		if score := opts.LexicalWeight*c.lex + (1-opts.LexicalWeight)*structural; score >= opts.MinScore {
			mappings = append(mappings, Mapping{A: c.a, B: c.b, Score: score})
		}
	}
	sort.Slice(mappings, func(i, j int) bool {
		if mappings[i].Score != mappings[j].Score {
			return mappings[i].Score > mappings[j].Score
		}
		if mappings[i].A != mappings[j].A {
			return mappings[i].A < mappings[j].A
		}
		return mappings[i].B < mappings[j].B
	})
	usedA, usedB := map[string]bool{}, map[string]bool{}
	var out []Mapping
	for _, m := range mappings {
		if !usedA[m.A] && !usedB[m.B] {
			usedA[m.A], usedB[m.B] = true, true
			out = append(out, m)
		}
	}
	return out
}

// randomLayer builds a layer over a small inflected vocabulary, so keys
// share stems, come in permuted orders and spellings with one token set,
// and include user-like IDs and keys with no tokens at all.
func randomLayer(rng *rand.Rand, name string, nodes, edges int) *Layer {
	vocab := []string{"graph", "graphs", "processing", "process", "stream",
		"streams", "tensor", "query", "queries", "social", "network", "index"}
	seps := []string{" ", "-", ", ", " / "}
	g := graph.NewBuilder()
	for _, k := range []string{"--", "..", "Graph Processing", "processing-graph"} {
		g.EnsureNode(k, "concept")
	}
	for g.NumNodes() < nodes {
		var key string
		if rng.Intn(5) == 0 {
			key = fmt.Sprintf("u%03d", rng.Intn(2*nodes))
		} else {
			words := make([]string, 1+rng.Intn(3))
			for i := range words {
				words[i] = vocab[rng.Intn(len(vocab))]
				if rng.Intn(4) == 0 {
					words[i] = strings.ToUpper(words[i])
				}
			}
			key = strings.Join(words, seps[rng.Intn(len(seps))])
		}
		g.EnsureNode(key, "concept")
	}
	for i := 0; i < edges; i++ {
		x, y := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if x != y {
			_ = g.AddUndirected(x, y, "related", 0.1+rng.Float64())
		}
	}
	return &Layer{Name: name, G: g.Freeze()}
}

// TestAlignMatchesAllPairs requires the postings join to return exactly
// what scoring every pair returns, over seeded random layers and
// non-default options.
func TestAlignMatchesAllPairs(t *testing.T) {
	optSets := []Options{
		{},
		{MinLexical: -1},
		{MinLexical: 0.3, MinScore: 0.25},
		{MinLexical: 0.2, LexicalWeight: 0.3, MinScore: 0.1},
		{MinLexical: 0.9, LexicalWeight: 0.9, MinScore: 0.6},
	}
	mapped := 0
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomLayer(rng, "a", 60, 150)
		b := randomLayer(rng, "b", 80, 200)
		for _, opts := range optSets {
			want := alignAllPairs(a, b, opts)
			got := Align(a, b, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %+v:\n got %v\nwant %v", seed, opts, got, want)
			}
			mapped += len(got)
		}
	}
	if mapped == 0 {
		t.Fatal("no mappings at all: the layers exercise nothing")
	}
}

// TestIntegrateDeterministic integrates the same layers twice and
// requires every node's out-edges in the same order with bit-equal
// weights: downstream PageRank and community detection sum over them.
func TestIntegrateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var layers []*Layer
	for i, name := range []string{"connections", "coauthor", "attendance", "qa"} {
		l := randomLayer(rng, name, 60, 200)
		l.Trust = 1 - 0.1*float64(i)
		layers = append(layers, l)
	}
	first, err := Integrate(layers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := Integrate(layers, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first.G.Nodes(func(n graph.Node) bool {
			want, got := first.G.Out(n.ID), again.G.Out(n.ID)
			if len(got) != len(want) {
				t.Fatalf("node %q: %d out-edges, then %d", n.Key, len(want), len(got))
			}
			for i := range want {
				if got[i].Node != want[i].Node || again.G.Label(got[i].Label) != first.G.Label(want[i].Label) ||
					math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
					t.Fatalf("node %q edge %d: %+v, then %+v", n.Key, i, want[i], got[i])
				}
			}
			return true
		})
	}
}

func TestIntegrateEmpty(t *testing.T) {
	if _, err := Integrate(nil, Options{}); !errors.Is(err, ErrNoLayers) {
		t.Fatalf("err = %v", err)
	}
}

func TestIntegrateMergesAlignedNodes(t *testing.T) {
	a := layerFromEdges("social", 1, [][2]string{{"alice", "bob"}})
	b := layerFromEdges("coauthor", 1, [][2]string{{"alice", "bob"}})
	in, err := Integrate([]*Layer{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.G.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want merged 2", in.G.NumNodes())
	}
	if in.Resolve("coauthor", "alice") != "alice" {
		t.Fatalf("Resolve = %q", in.Resolve("coauthor", "alice"))
	}
}

func TestIntegrateNoisyOrReinforcement(t *testing.T) {
	// The alice-bob edge exists in both layers; alice-carol in one. The
	// combined weight of the doubly-asserted edge must be strictly
	// higher.
	a := layerFromEdges("social", 0.8, [][2]string{{"alice", "bob"}, {"alice", "carol"}})
	b := layerFromEdges("coauthor", 0.8, [][2]string{{"alice", "bob"}})
	in, err := Integrate([]*Layer{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	al := in.G.Lookup("alice")
	bo := in.G.Lookup("bob")
	ca := in.G.Lookup("carol")
	eb, ok1 := in.G.EdgeBetween(al, bo, EdgeIntegrated)
	ec, ok2 := in.G.EdgeBetween(al, ca, EdgeIntegrated)
	if !ok1 || !ok2 {
		t.Fatalf("integrated edges missing: %v %v", ok1, ok2)
	}
	if eb.Weight <= ec.Weight {
		t.Fatalf("reinforcement failed: both=%v single=%v", eb.Weight, ec.Weight)
	}
	// Noisy-OR keeps weights in (0, 1].
	if eb.Weight > 1 || ec.Weight > 1 {
		t.Fatalf("weights exceed 1: %v %v", eb.Weight, ec.Weight)
	}
	// Per-layer edges are preserved alongside.
	if _, ok := in.G.EdgeBetween(al, bo, "layer/social/related"); !ok {
		t.Fatal("per-layer edge missing")
	}
}

func TestIntegrateTrustScalesContribution(t *testing.T) {
	hi := layerFromEdges("trusted", 1.0, [][2]string{{"x", "y"}})
	lo := layerFromEdges("noisy", 0.2, [][2]string{{"x", "z"}})
	in, err := Integrate([]*Layer{hi, lo}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := in.G.Lookup("x")
	ey, _ := in.G.EdgeBetween(x, in.G.Lookup("y"), EdgeIntegrated)
	ez, _ := in.G.EdgeBetween(x, in.G.Lookup("z"), EdgeIntegrated)
	if ey.Weight <= ez.Weight {
		t.Fatalf("trust ignored: trusted=%v noisy=%v", ey.Weight, ez.Weight)
	}
}

func TestIntegratePreservesUnalignedNodes(t *testing.T) {
	a := layerFromEdges("a", 1, [][2]string{{"alice", "bob"}})
	b := layerFromEdges("b", 1, [][2]string{{"tensor streams", "compressed sensing"}})
	in, err := Integrate([]*Layer{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.G.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4 distinct", in.G.NumNodes())
	}
}

func TestAgree(t *testing.T) {
	a := layerFromEdges("a", 1, [][2]string{{"alice", "bob"}, {"alice", "carol"}})
	b := layerFromEdges("b", 1, [][2]string{{"alice", "bob"}, {"bob", "carol"}})
	in, err := Integrate([]*Layer{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ag := in.Agree([]*Layer{a, b}, "a", "b")
	// alice-bob (both directions) reinforced; alice-carol and bob-carol
	// conflict (both endpoints in both layers, edge in only one).
	if ag.Reinforced != 2 {
		t.Fatalf("Reinforced = %d, want 2 (directed)", ag.Reinforced)
	}
	if ag.Conflicting != 4 {
		t.Fatalf("Conflicting = %d, want 4 (directed)", ag.Conflicting)
	}
	// Unknown layer names yield zero.
	if got := in.Agree([]*Layer{a, b}, "a", "zzz"); got != (Agreement{}) {
		t.Fatalf("unknown layer agreement = %+v", got)
	}
}

func TestIntegratedString(t *testing.T) {
	a := layerFromEdges("a", 1, [][2]string{{"x", "y"}})
	in, _ := Integrate([]*Layer{a}, Options{})
	if in.String() == "" {
		t.Fatal("empty String")
	}
}

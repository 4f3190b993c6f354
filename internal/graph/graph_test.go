package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNode(t *testing.T, g *Builder, key, label string) NodeID {
	t.Helper()
	id, err := g.AddNode(key, label)
	if err != nil {
		t.Fatalf("AddNode(%q): %v", key, err)
	}
	return id
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := NewBuilder()
	for i, key := range []string{"a", "b", "c"} {
		id := mustNode(t, g, key, "user")
		if int(id) != i {
			t.Fatalf("node %q got id %d, want %d", key, id, i)
		}
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
}

func TestAddNodeDuplicateKey(t *testing.T) {
	g := NewBuilder()
	mustNode(t, g, "a", "user")
	if _, err := g.AddNode("a", "user"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate AddNode err = %v, want ErrDuplicateKey", err)
	}
}

func TestEnsureNodeIdempotent(t *testing.T) {
	g := NewBuilder()
	a := g.EnsureNode("x", "paper")
	b := g.EnsureNode("x", "paper")
	if a != b {
		t.Fatalf("EnsureNode returned %d then %d", a, b)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestLookup(t *testing.T) {
	g := NewBuilder()
	id := mustNode(t, g, "k", "user")
	if got := g.Lookup("k"); got != id {
		t.Fatalf("Lookup = %d, want %d", got, id)
	}
	if got := g.Lookup("missing"); got != Invalid {
		t.Fatalf("Lookup(missing) = %d, want Invalid", got)
	}
}

func TestNodeErrors(t *testing.T) {
	g := NewBuilder()
	if err := g.SetNodeWeight(5, 1); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("SetNodeWeight err = %v", err)
	}
	if _, err := g.Freeze().Node(0); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("Node(0) on empty graph err = %v", err)
	}
}

func TestSetNodeWeight(t *testing.T) {
	g := NewBuilder()
	id := mustNode(t, g, "a", "concept")
	if err := g.SetNodeWeight(id, 2.5); err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	n, err := f.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	if n.Weight != 2.5 {
		t.Fatalf("Weight = %v, want 2.5", n.Weight)
	}
}

func TestAddEdgeAccumulatesSameLabel(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "user")
	b := mustNode(t, g, "b", "user")
	if err := g.AddEdge(a, b, "follows", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, "follows", 2); err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	if f.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (weights accumulate)", f.NumEdges())
	}
	e, ok := f.EdgeBetween(a, b, "follows")
	if !ok || e.Weight != 3 {
		t.Fatalf("EdgeBetween = %+v ok=%v, want weight 3", e, ok)
	}
	// In-edge mirror must stay consistent.
	in := f.In(b)
	if len(in) != 1 || in[0].Weight != 3 {
		t.Fatalf("In(b) = %+v, want single weight-3 edge", in)
	}
}

func TestAddEdgeParallelLabels(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "user")
	b := mustNode(t, g, "b", "user")
	for _, lbl := range []string{"coauthor", "cites", "follows"} {
		if err := g.AddEdge(a, b, lbl, 1); err != nil {
			t.Fatal(err)
		}
	}
	f := g.Freeze()
	if f.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 distinct labels", f.NumEdges())
	}
	if len(f.Neighbors(a)) != 1 {
		t.Fatalf("Neighbors = %v, want single distinct neighbor", f.Neighbors(a))
	}
}

func TestAddEdgeUnknownNode(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "user")
	if err := g.AddEdge(a, 99, "x", 1); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v, want ErrNodeNotFound", err)
	}
	if err := g.AddEdge(99, a, "x", 1); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestAddUndirected(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "user")
	b := mustNode(t, g, "b", "user")
	if err := g.AddUndirected(a, b, "coauthor", 1); err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	if _, ok := f.EdgeBetween(a, b, "coauthor"); !ok {
		t.Fatal("missing a->b")
	}
	if _, ok := f.EdgeBetween(b, a, "coauthor"); !ok {
		t.Fatal("missing b->a")
	}
}

func TestNodesByLabel(t *testing.T) {
	g := NewBuilder()
	mustNode(t, g, "u1", "user")
	mustNode(t, g, "p1", "paper")
	mustNode(t, g, "u2", "user")
	f := g.Freeze()
	users := f.NodesByLabel("user")
	if len(users) != 2 || users[0] != 0 || users[1] != 2 {
		t.Fatalf("NodesByLabel(user) = %v", users)
	}
}

func TestNodesIterationStops(t *testing.T) {
	g := NewBuilder()
	for _, k := range []string{"a", "b", "c"} {
		mustNode(t, g, k, "x")
	}
	count := 0
	f := g.Freeze()
	f.Nodes(func(Node) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visited %d nodes, want 2", count)
	}
}

func TestBFSDepths(t *testing.T) {
	g := line(t, 5) // 0-1-2-3-4 directed chain
	depths := map[NodeID]int{}
	f := g.Freeze()
	f.BFS(0, func(id NodeID, d int) bool {
		depths[id] = d
		return true
	})
	for i := 0; i < 5; i++ {
		if depths[NodeID(i)] != i {
			t.Fatalf("depth[%d] = %d, want %d", i, depths[NodeID(i)], i)
		}
	}
}

func TestBFSRespectsCutoff(t *testing.T) {
	g := line(t, 5)
	f := g.Freeze()
	within := f.WithinHops(0, 2)
	if len(within) != 2 {
		t.Fatalf("WithinHops = %v, want nodes 1,2", within)
	}
	if within[1] != 1 || within[2] != 2 {
		t.Fatalf("WithinHops distances = %v", within)
	}
}

func TestDFSVisitsAllReachable(t *testing.T) {
	g := NewBuilder()
	ids := make([]NodeID, 4)
	for i := range ids {
		ids[i] = mustNode(t, g, string(rune('a'+i)), "x")
	}
	// a -> b, a -> c, c -> d
	_ = g.AddEdge(ids[0], ids[1], "e", 1)
	_ = g.AddEdge(ids[0], ids[2], "e", 1)
	_ = g.AddEdge(ids[2], ids[3], "e", 1)
	var seen []NodeID
	f := g.Freeze()
	f.DFS(ids[0], func(id NodeID) bool {
		seen = append(seen, id)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("DFS visited %v, want 4 nodes", seen)
	}
	if seen[0] != ids[0] {
		t.Fatalf("DFS should start at root, got %v", seen)
	}
}

func TestComponents(t *testing.T) {
	g := NewBuilder()
	// Component 1: a-b-c, Component 2: d-e, Component 3: f alone.
	keys := []string{"a", "b", "c", "d", "e", "f"}
	ids := map[string]NodeID{}
	for _, k := range keys {
		ids[k] = mustNode(t, g, k, "x")
	}
	_ = g.AddEdge(ids["a"], ids["b"], "e", 1)
	_ = g.AddEdge(ids["c"], ids["b"], "e", 1) // direction must not matter
	_ = g.AddEdge(ids["d"], ids["e"], "e", 1)
	f := g.Freeze()
	comps := f.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes = %d,%d,%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestShortestPathPrefersCheapRoute(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	b := mustNode(t, g, "b", "x")
	c := mustNode(t, g, "c", "x")
	// Direct a->c is weak (weight 0.1 => cost ~0.91); a->b->c is strong.
	_ = g.AddEdge(a, c, "e", 0.1)
	_ = g.AddEdge(a, b, "e", 9)
	_ = g.AddEdge(b, c, "e", 9)
	f := g.Freeze()
	p, err := f.ShortestPath(a, c, InverseWeightCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 3 || p.Nodes[1] != b {
		t.Fatalf("path = %v, want through b", p.Nodes)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	b := mustNode(t, g, "b", "x")
	f := g.Freeze()
	if _, err := f.ShortestPath(a, b, UnitCost); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	f := g.Freeze()
	p, err := f.ShortestPath(a, a, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v", p)
	}
}

func TestKShortestPaths(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	b := mustNode(t, g, "b", "x")
	c := mustNode(t, g, "c", "x")
	d := mustNode(t, g, "d", "x")
	// Three distinct routes a->d: direct (cost 3), via b (2), via c (2.5).
	_ = g.AddEdgeCost(a, d, 3)
	_ = g.AddEdgeCost(a, b, 1)
	_ = g.AddEdgeCost(b, d, 1)
	_ = g.AddEdgeCost(a, c, 1)
	_ = g.AddEdgeCost(c, d, 1.5)
	f := g.Freeze()
	paths, err := f.KShortestPaths(a, d, 3, func(e Edge) float64 { return e.Weight })
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	if paths[0].Cost > paths[1].Cost || paths[1].Cost > paths[2].Cost {
		t.Fatalf("paths not sorted by cost: %v %v %v", paths[0].Cost, paths[1].Cost, paths[2].Cost)
	}
	if paths[0].Nodes[1] != b {
		t.Fatalf("best path should go via b, got %v", paths[0].Nodes)
	}
	// All paths must be loopless.
	for _, p := range paths {
		seen := map[NodeID]bool{}
		for _, id := range p.Nodes {
			if seen[id] {
				t.Fatalf("path %v has a loop", p.Nodes)
			}
			seen[id] = true
		}
	}
}

// AddEdgeCost is a test helper: weight doubles as cost.
func (g *Builder) AddEdgeCost(from, to NodeID, w float64) error {
	return g.AddEdge(from, to, "e", w)
}

func TestKShortestFewerThanK(t *testing.T) {
	g := line(t, 3)
	f := g.Freeze()
	paths, err := f.KShortestPaths(0, 2, 5, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("got %d paths on a chain, want 1", len(paths))
	}
}

func TestPageRankUniformOnSymmetricGraph(t *testing.T) {
	g := NewBuilder()
	n := 4
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = mustNode(t, g, string(rune('a'+i)), "x")
	}
	for i := 0; i < n; i++ {
		_ = g.AddEdge(ids[i], ids[(i+1)%n], "e", 1)
	}
	f := g.Freeze()
	pr := f.PageRank(PageRankOptions{})
	for i := 1; i < n; i++ {
		if diff := pr[i] - pr[0]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("ring PageRank not uniform: %v", pr)
		}
	}
	var sum float64
	for _, v := range pr {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("PageRank sum = %v, want ~1", sum)
	}
}

func TestPageRankFavorsSink(t *testing.T) {
	g := NewBuilder()
	hub := mustNode(t, g, "hub", "x")
	for i := 0; i < 5; i++ {
		u := mustNode(t, g, string(rune('a'+i)), "x")
		_ = g.AddEdge(u, hub, "e", 1)
		_ = g.AddEdge(hub, u, "e", 0.1)
	}
	f := g.Freeze()
	pr := f.PageRank(PageRankOptions{})
	for i := 1; i < len(pr); i++ {
		if pr[hub] <= pr[i] {
			t.Fatalf("hub rank %v not above spoke %v", pr[hub], pr[i])
		}
	}
}

func TestPersonalizedPageRankConcentratesNearRestart(t *testing.T) {
	g := line(t, 10)
	// Make the chain bidirectional so mass can flow both ways.
	for i := 0; i+1 < 10; i++ {
		_ = g.AddEdge(NodeID(i+1), NodeID(i), "e", 1)
	}
	f := g.Freeze()
	pr := f.PersonalizedPageRank(map[NodeID]float64{0: 1}, PageRankOptions{})
	if pr[0] <= pr[5] {
		t.Fatalf("restart node should dominate: pr[0]=%v pr[5]=%v", pr[0], pr[5])
	}
	if pr[1] <= pr[9] {
		t.Fatalf("rank should decay with distance: pr[1]=%v pr[9]=%v", pr[1], pr[9])
	}
}

func TestPersonalizedPageRankEmptyRestartFallsBack(t *testing.T) {
	g := line(t, 3)
	f := g.Freeze()
	pr := f.PersonalizedPageRank(nil, PageRankOptions{})
	if len(pr) != 3 {
		t.Fatalf("len = %d", len(pr))
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(scores, 3, map[NodeID]bool{2: true})
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0] != 1 || top[1] != 3 { // ties break toward lower IDs
		t.Fatalf("top = %v", top)
	}
	if top[2] != 4 {
		t.Fatalf("top = %v, want node 4 third (node 2 skipped)", top)
	}
}

func TestTopKLargerThanInput(t *testing.T) {
	top := TopK([]float64{1, 2}, 10, nil)
	if len(top) != 2 {
		t.Fatalf("len = %d, want clamped to 2", len(top))
	}
}

func TestJaccardAndCommonNeighbors(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	b := mustNode(t, g, "b", "x")
	shared := mustNode(t, g, "s", "x")
	onlyA := mustNode(t, g, "oa", "x")
	onlyB := mustNode(t, g, "ob", "x")
	_ = g.AddEdge(a, shared, "e", 1)
	_ = g.AddEdge(a, onlyA, "e", 1)
	_ = g.AddEdge(b, shared, "e", 1)
	_ = g.AddEdge(b, onlyB, "e", 1)
	f := g.Freeze()
	if cn := f.CommonNeighbors(a, b); cn != 1 {
		t.Fatalf("CommonNeighbors = %d, want 1", cn)
	}
	if j := f.Jaccard(a, b); j < 0.33 || j > 0.34 {
		t.Fatalf("Jaccard = %v, want 1/3", j)
	}
	if j := f.Jaccard(onlyA, onlyB); j != 0 {
		t.Fatalf("Jaccard of leaves = %v, want 0", j)
	}
}

func TestAdamicAdarPrefersRareNeighbors(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	b := mustNode(t, g, "b", "x")
	c := mustNode(t, g, "c", "x")
	d := mustNode(t, g, "d", "x")
	rare := mustNode(t, g, "rare", "x")
	popular := mustNode(t, g, "pop", "x")
	// rare has out-degree 2; popular has out-degree 5.
	_ = g.AddEdge(rare, a, "e", 1)
	_ = g.AddEdge(rare, b, "e", 1)
	for i, t2 := range []NodeID{a, b, c, d, rare} {
		_ = g.AddEdge(popular, t2, "e", float64(1+i))
	}
	// a,b share rare; c,d share popular.
	_ = g.AddEdge(a, rare, "e", 1)
	_ = g.AddEdge(b, rare, "e", 1)
	_ = g.AddEdge(c, popular, "e", 1)
	_ = g.AddEdge(d, popular, "e", 1)
	f := g.Freeze()
	if f.AdamicAdar(a, b) <= f.AdamicAdar(c, d) {
		t.Fatalf("rare shared neighbor should score higher: %v vs %v",
			f.AdamicAdar(a, b), f.AdamicAdar(c, d))
	}
}

func TestCosineNeighborhood(t *testing.T) {
	g := NewBuilder()
	a := mustNode(t, g, "a", "x")
	b := mustNode(t, g, "b", "x")
	x := mustNode(t, g, "x1", "x")
	y := mustNode(t, g, "y1", "x")
	_ = g.AddEdge(a, x, "e", 2)
	_ = g.AddEdge(a, y, "e", 1)
	_ = g.AddEdge(b, x, "e", 4)
	_ = g.AddEdge(b, y, "e", 2)
	// Parallel vectors: cosine must be 1.
	f := g.Freeze()
	if cs := f.CosineNeighborhood(a, b); cs < 0.999 {
		t.Fatalf("cosine = %v, want ~1", cs)
	}
	if cs := f.CosineNeighborhood(x, y); cs != 0 {
		t.Fatalf("cosine of empty neighborhoods = %v, want 0", cs)
	}
}

// line builds a directed chain 0 -> 1 -> ... -> n-1.
func line(t *testing.T, n int) *Builder {
	t.Helper()
	g := NewBuilder()
	for i := 0; i < n; i++ {
		mustNode(t, g, string(rune('A'+i)), "x")
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1), "e", 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// --- Property-based tests -------------------------------------------------

// randomGraph builds a pseudo-random graph from a seed.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewBuilder()
	for i := 0; i < n; i++ {
		g.EnsureNode(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), "x")
	}
	for i := 0; i < m; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		_ = g.AddEdge(a, b, "e", rng.Float64()+0.01)
	}
	return g.Freeze()
}

func TestPropComponentsPartitionNodes(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 40)
		comps := g.Components()
		seen := map[NodeID]bool{}
		total := 0
		for _, c := range comps {
			for _, id := range c {
				if seen[id] {
					return false // node in two components
				}
				seen[id] = true
				total++
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPageRankSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 60)
		pr := g.PageRank(PageRankOptions{})
		var sum float64
		for _, v := range pr {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum > 0.99 && sum < 1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropShortestPathTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 60)
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		a := NodeID(rng.Intn(15))
		b := NodeID(rng.Intn(15))
		c := NodeID(rng.Intn(15))
		ab, err1 := g.ShortestPath(a, b, UnitCost)
		bc, err2 := g.ShortestPath(b, c, UnitCost)
		ac, err3 := g.ShortestPath(a, c, UnitCost)
		if err1 != nil || err2 != nil || err3 != nil {
			return true // disconnected pairs carry no obligation
		}
		return ac.Cost <= ab.Cost+bc.Cost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropJaccardSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 50)
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		a := NodeID(rng.Intn(20))
		b := NodeID(rng.Intn(20))
		j1 := g.Jaccard(a, b)
		j2 := g.Jaccard(b, a)
		if j1 != j2 {
			return false
		}
		return j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropKShortestSortedAndLoopless(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 12, 40)
		rng := rand.New(rand.NewSource(seed ^ 0xabc))
		a := NodeID(rng.Intn(12))
		b := NodeID(rng.Intn(12))
		paths, err := g.KShortestPaths(a, b, 4, InverseWeightCost)
		if err != nil {
			return true
		}
		for i := 1; i < len(paths); i++ {
			if paths[i].Cost+1e-9 < paths[i-1].Cost {
				return false
			}
		}
		for _, p := range paths {
			seen := map[NodeID]bool{}
			for _, id := range p.Nodes {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

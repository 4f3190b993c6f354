package community

import (
	"fmt"
	"math/rand"
	"testing"

	"hive/internal/graph"
)

// twoCliques builds two dense cliques of size k joined by one weak edge.
func twoCliques(t *testing.T, k int) *graph.Graph {
	t.Helper()
	g := graph.NewBuilder()
	for i := 0; i < 2*k; i++ {
		if _, err := g.AddNode(fmt.Sprintf("n%d", i), "user"); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				_ = g.AddUndirected(graph.NodeID(base+i), graph.NodeID(base+j), "e", 1)
			}
		}
	}
	_ = g.AddUndirected(graph.NodeID(0), graph.NodeID(k), "e", 0.1)
	return g.Freeze()
}

func TestDetectSeparatesCliques(t *testing.T) {
	g := twoCliques(t, 6)
	comms := Detect(g, 1)
	if len(comms) != 2 {
		t.Fatalf("got %d communities, want 2: %v", len(comms), comms)
	}
	// Each community must be exactly one clique.
	for _, c := range comms {
		if len(c) != 6 {
			t.Fatalf("community size %d, want 6", len(c))
		}
		side := int(c[0]) / 6
		for _, id := range c {
			if int(id)/6 != side {
				t.Fatalf("mixed community: %v", c)
			}
		}
	}
}

func TestDetectEmptyAndSingleton(t *testing.T) {
	if got := Detect(graph.NewBuilder().Freeze(), 1); got != nil {
		t.Fatalf("empty graph = %v", got)
	}
	g := graph.NewBuilder()
	_, _ = g.AddNode("solo", "user")
	comms := Detect(g.Freeze(), 1)
	if len(comms) != 1 || len(comms[0]) != 1 {
		t.Fatalf("singleton = %v", comms)
	}
}

func TestDetectDeterministicForSeed(t *testing.T) {
	g := twoCliques(t, 5)
	a := Detect(g, 7)
	b := Detect(g, 7)
	if len(a) != len(b) {
		t.Fatal("non-deterministic community count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("non-deterministic community sizes")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("non-deterministic membership")
			}
		}
	}
}

func TestModularityGoodVsBadPartition(t *testing.T) {
	g := twoCliques(t, 5)
	good := Detect(g, 1)
	qGood := Modularity(g, good)
	// Bad partition: everything in one community.
	var all Community
	g.Nodes(func(n graph.Node) bool {
		all = append(all, n.ID)
		return true
	})
	qBad := Modularity(g, []Community{all})
	if qGood <= qBad {
		t.Fatalf("modularity ordering wrong: good=%v bad=%v", qGood, qBad)
	}
	if qGood <= 0.3 {
		t.Fatalf("clique partition modularity too low: %v", qGood)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := graph.NewBuilder().Freeze()
	if q := Modularity(g, nil); q != 0 {
		t.Fatalf("empty modularity = %v", q)
	}
}

func TestGreedyModularityNeverWorseThanLP(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomCommunityGraph(seed, 3, 8)
		lp := Detect(g, seed)
		gm := GreedyModularity(g, seed)
		qLP := Modularity(g, lp)
		qGM := Modularity(g, gm)
		if qGM < qLP-1e-9 {
			t.Fatalf("seed %d: greedy %v < LP %v", seed, qGM, qLP)
		}
	}
}

// randomCommunityGraph plants `k` communities of size `size` with dense
// intra-links and sparse inter-links.
func randomCommunityGraph(seed int64, k, size int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewBuilder()
	n := k * size
	for i := 0; i < n; i++ {
		g.EnsureNode(fmt.Sprintf("n%d", i), "user")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameComm := i/size == j/size
			p := 0.08
			if sameComm {
				p = 0.7
			}
			if rng.Float64() < p {
				_ = g.AddUndirected(graph.NodeID(i), graph.NodeID(j), "e", 1)
			}
		}
	}
	return g.Freeze()
}

func TestDetectRecoverPlantedPartition(t *testing.T) {
	g := randomCommunityGraph(3, 3, 10)
	comms := GreedyModularity(g, 3)
	if len(comms) < 2 || len(comms) > 6 {
		t.Fatalf("got %d communities for 3 planted", len(comms))
	}
	// The largest community should be dominated by a single planted group.
	largest := comms[0]
	counts := map[int]int{}
	for _, id := range largest {
		counts[int(id)/10]++
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if float64(best) < 0.7*float64(len(largest)) {
		t.Fatalf("largest community not pure: %v", counts)
	}
}

func TestTrackMatchesStableCommunities(t *testing.T) {
	gPrev := twoCliques(t, 5)
	prev := Detect(gPrev, 1)
	// Next snapshot: same structure, nodes renamed so IDs differ but
	// keys persist.
	gNext := twoCliques(t, 5)
	next := Detect(gNext, 2)

	keyOf := func(g *graph.Graph) func(graph.NodeID) string {
		return func(id graph.NodeID) string {
			n, _ := g.Node(id)
			return n.Key
		}
	}
	matches := Track(prev, next, keyOf(gPrev), keyOf(gNext))
	if len(matches) != len(prev) {
		t.Fatalf("matches = %v", matches)
	}
	for _, m := range matches {
		if m.NextIndex < 0 || m.Jaccard < 0.99 {
			t.Fatalf("stable community not tracked: %+v", m)
		}
	}
}

func TestTrackDissolvedCommunity(t *testing.T) {
	gPrev := twoCliques(t, 4)
	prev := Detect(gPrev, 1)
	keyPrev := func(id graph.NodeID) string {
		n, _ := gPrev.Node(id)
		return n.Key
	}
	// Next snapshot shares no members at all.
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.EnsureNode(fmt.Sprintf("new%d", i), "user")
	}
	gNext := b.Freeze()
	next := Detect(gNext, 1)
	keyNext := func(id graph.NodeID) string {
		n, _ := gNext.Node(id)
		return n.Key
	}
	matches := Track(prev, next, keyPrev, keyNext)
	for _, m := range matches {
		if m.NextIndex != -1 {
			t.Fatalf("dissolved community matched: %+v", m)
		}
	}
}

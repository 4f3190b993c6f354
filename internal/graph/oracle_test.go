package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refGraph is the adjacency-list multigraph the frozen layout replaced,
// kept as the oracle: AddEdge scans the out-list and accumulates onto a
// matching (to, label) arc in place.
type refGraph struct {
	nodes   int
	out, in [][]refEdge
}

type refEdge struct {
	From, To NodeID
	Label    string
	Weight   float64
}

func (g *refGraph) addNode() {
	g.nodes++
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
}

func (g *refGraph) addEdge(from, to NodeID, label string, w float64) {
	for i := range g.out[from] {
		e := &g.out[from][i]
		if e.To == to && e.Label == label {
			e.Weight += w
			for j := range g.in[to] {
				f := &g.in[to][j]
				if f.From == from && f.Label == label {
					f.Weight += w
					break
				}
			}
			return
		}
	}
	e := refEdge{from, to, label, w}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
}

func (g *refGraph) edgeBetween(from, to NodeID, label string) (refEdge, bool) {
	for _, e := range g.out[from] {
		if e.To == to && (label == "" || e.Label == label) {
			return e, true
		}
	}
	return refEdge{}, false
}

func (g *refGraph) neighbors(id NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var ns []NodeID
	for _, e := range g.out[id] {
		if !seen[e.To] {
			seen[e.To] = true
			ns = append(ns, e.To)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

func (g *refGraph) bfs(start NodeID) []NodeID {
	seen := make([]bool, g.nodes)
	queue := []NodeID{start}
	seen[start] = true
	var order []NodeID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, e := range g.out[id] {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return order
}

func refCost(e refEdge) float64 { return 1 / (1 + e.Weight) }

func (g *refGraph) dijkstra(from, to NodeID, bannedNodes map[NodeID]bool, bannedEdges map[NodeID]map[NodeID]bool) ([]float64, []NodeID) {
	dist := make([]float64, g.nodes)
	prev := make([]NodeID, g.nodes)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = Invalid
	}
	dist[from] = 0
	pq := &pathHeap{{id: from, cost: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(pathItem)
		if cur.cost > dist[cur.id] {
			continue
		}
		if cur.id == to {
			break
		}
		for _, e := range g.out[cur.id] {
			if bannedNodes[e.To] || bannedEdges[cur.id][e.To] {
				continue
			}
			if nd := cur.cost + refCost(e); nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = cur.id
				heap.Push(pq, pathItem{id: e.To, cost: nd})
			}
		}
	}
	return dist, prev
}

// kShortest is Yen's algorithm under refCost, as the adjacency-list
// graph ran it.
func (g *refGraph) kShortest(from, to NodeID, k int) []Path {
	dist, prev := g.dijkstra(from, to, nil, nil)
	if math.IsInf(dist[to], 1) {
		return nil
	}
	paths := []Path{{Nodes: buildPath(prev, from, to), Cost: dist[to]}}
	var candidates []Path
	for len(paths) < k {
		prevPath := paths[len(paths)-1].Nodes
		for i := 0; i < len(prevPath)-1; i++ {
			rootPath := prevPath[:i+1]
			bannedEdges := map[NodeID]map[NodeID]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootPath) {
					if bannedEdges[p.Nodes[i]] == nil {
						bannedEdges[p.Nodes[i]] = map[NodeID]bool{}
					}
					bannedEdges[p.Nodes[i]][p.Nodes[i+1]] = true
				}
			}
			bannedNodes := map[NodeID]bool{}
			for _, id := range rootPath[:i] {
				bannedNodes[id] = true
			}
			dist, prev := g.dijkstra(prevPath[i], to, bannedNodes, bannedEdges)
			if math.IsInf(dist[to], 1) {
				continue
			}
			total := append(append([]NodeID(nil), rootPath[:i]...), buildPath(prev, prevPath[i], to)...)
			var c float64
			for j := 0; j+1 < len(total); j++ {
				best := math.Inf(1)
				for _, e := range g.out[total[j]] {
					if e.To == total[j+1] && refCost(e) < best {
						best = refCost(e)
					}
				}
				c += best
			}
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, Path{Nodes: total, Cost: c})
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].Cost < candidates[best].Cost {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

// rank is the damped power iteration over the adjacency lists with the
// given restart vector (summing to 1).
func (g *refGraph) rank(restart []float64) []float64 {
	damping, maxIter, tol := 0.85, 100, 1e-9
	outW := make([]float64, g.nodes)
	for i := range outW {
		for _, e := range g.out[i] {
			outW[i] += e.Weight
		}
	}
	rank := append([]float64(nil), restart...)
	next := make([]float64, g.nodes)
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		var dangling float64
		for i := 0; i < g.nodes; i++ {
			if rank[i] == 0 {
				continue
			}
			if outW[i] == 0 {
				dangling += rank[i]
				continue
			}
			share := damping * rank[i] / outW[i]
			for _, e := range g.out[i] {
				next[e.To] += share * e.Weight
			}
		}
		back := damping*dangling + (1 - damping)
		var delta float64
		for i := 0; i < g.nodes; i++ {
			next[i] += back * restart[i]
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}

// randomMultigraph feeds one seeded sequence of nodes and arcs to a
// Builder and to the oracle: few labels and few nodes, so repeated
// (from, to, label) arcs, parallel labels, self-loops and undirected
// pairs all occur; every tenth seed adds thousands of arcs, most of
// them repeats.
func randomMultigraph(seed int64) (*Graph, *refGraph) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(24)
	m := rng.Intn(6 * n)
	if seed%10 == 0 {
		m = 3000
	}
	labels := []string{"a", "b", "c"}
	b, ref := NewBuilder(), &refGraph{}
	for i := 0; i < n; i++ {
		b.EnsureNode(fmt.Sprintf("n%d", i), "x")
		ref.addNode()
	}
	for i := 0; i < m; i++ {
		from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		l := labels[rng.Intn(len(labels))]
		w := float64(rng.Intn(4)) + rng.Float64()
		_ = b.AddEdge(from, to, l, w)
		ref.addEdge(from, to, l, w)
		if rng.Intn(4) == 0 {
			_ = b.AddEdge(to, from, l, w)
			ref.addEdge(to, from, l, w)
		}
	}
	return b.Freeze(), ref
}

// TestFrozenMatchesAdjacencyOracle holds the frozen layout to the
// adjacency lists it replaced, with ==, on seeded random multigraphs:
// arc order and weights in both directions, EdgeBetween, Neighbors,
// BFS order, Yen's k shortest paths and PageRank with uniform and
// single-node restart.
func TestFrozenMatchesAdjacencyOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		g, ref := randomMultigraph(seed)
		n := ref.nodes
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		arcs := 0
		for i := 0; i < n; i++ {
			id := NodeID(i)
			out, want := g.Out(id), ref.out[i]
			if len(out) != len(want) {
				fail("Out(%d) has %d arcs, oracle %d", i, len(out), len(want))
			}
			for j, e := range out {
				if e.Node != want[j].To || g.Label(e.Label) != want[j].Label || e.Weight != want[j].Weight {
					fail("Out(%d)[%d] = %+v, oracle %+v", i, j, e, want[j])
				}
			}
			in, wantIn := g.In(id), ref.in[i]
			if len(in) != len(wantIn) {
				fail("In(%d) has %d arcs, oracle %d", i, len(in), len(wantIn))
			}
			for j, e := range in {
				if e.Node != wantIn[j].From || g.Label(e.Label) != wantIn[j].Label || e.Weight != wantIn[j].Weight {
					fail("In(%d)[%d] = %+v, oracle %+v", i, j, e, wantIn[j])
				}
			}
			arcs += len(out)
			if got, want := fmt.Sprint(g.Neighbors(id)), fmt.Sprint(ref.neighbors(id)); got != want {
				fail("Neighbors(%d) = %s, oracle %s", i, got, want)
			}
			var order []NodeID
			g.BFS(id, func(v NodeID, _ int) bool { order = append(order, v); return true })
			if got, want := fmt.Sprint(order), fmt.Sprint(ref.bfs(id)); got != want {
				fail("BFS(%d) = %s, oracle %s", i, got, want)
			}
			for to := 0; to < n; to++ {
				for _, l := range []string{"", "a", "b", "c", "zz"} {
					e, ok := g.EdgeBetween(id, NodeID(to), l)
					w, wok := ref.edgeBetween(id, NodeID(to), l)
					if ok != wok || ok && (e.Node != w.To || g.Label(e.Label) != w.Label || e.Weight != w.Weight) {
						fail("EdgeBetween(%d, %d, %q) = %+v %v, oracle %+v %v", i, to, l, e, ok, w, wok)
					}
				}
			}
		}
		if arcs != g.NumEdges() {
			fail("NumEdges = %d, arcs listed %d", g.NumEdges(), arcs)
		}

		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 4; q++ {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			got, err := g.KShortestPaths(a, b, 4, InverseWeightCost)
			want := ref.kShortest(a, b, 4)
			if (err != nil) != (want == nil) {
				fail("KShortestPaths(%d, %d) err = %v, oracle %d paths", a, b, err, len(want))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail("KShortestPaths(%d, %d) = %v, oracle %v", a, b, got, want)
			}
			for i := range got {
				if got[i].Cost != want[i].Cost {
					fail("KShortestPaths(%d, %d)[%d] cost %v, oracle %v", a, b, i, got[i].Cost, want[i].Cost)
				}
			}
		}

		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1 / float64(n)
		}
		me := NodeID(rng.Intn(n))
		single := make([]float64, n)
		single[me] = 1
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"PageRank", g.PageRank(PageRankOptions{}), ref.rank(uniform)},
			{"PersonalizedPageRank", g.PersonalizedPageRank(map[NodeID]float64{me: 1}, PageRankOptions{}), ref.rank(single)},
		} {
			for i := range c.want {
				if c.got[i] != c.want[i] {
					fail("%s[%d] = %v, oracle %v", c.name, i, c.got[i], c.want[i])
				}
			}
		}
	}
}

package graph

import (
	"math"

	"hive/internal/topk"
)

// PageRankOptions configures the power-iteration PageRank solvers.
type PageRankOptions struct {
	// Damping is the probability of following an out-edge rather than
	// teleporting. Defaults to 0.85 when zero.
	Damping float64
	// MaxIter bounds the number of power iterations. Defaults to 100.
	MaxIter int
	// Tolerance is the L1 convergence threshold. Defaults to 1e-9.
	Tolerance float64
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// PPRWorkspace holds the scratch vectors of the power iteration so
// repeated PageRank runs over the same graph allocate nothing but the
// returned rank slice. It also caches the per-node total out-weights,
// which are invariant across runs. A workspace is bound to the graph of
// its first use and re-binds (recomputing the cache) when handed a
// different or resized graph; it assumes the graph is not mutated
// between runs — callers ranking a mutable graph must use a fresh
// workspace after mutations. Not safe for concurrent use.
type PPRWorkspace struct {
	g         *Graph
	outWeight []float64
	restart   []float64
	rank      []float64
	next      []float64
}

// bind points the workspace at g, sizing the scratch vectors and
// recomputing the out-weight cache if the graph changed.
func (ws *PPRWorkspace) bind(g *Graph) {
	n := len(g.nodes)
	if ws.g == g && len(ws.outWeight) == n {
		return
	}
	ws.g = g
	ws.outWeight = resize(ws.outWeight, n)
	ws.restart = resize(ws.restart, n)
	ws.rank = resize(ws.rank, n)
	ws.next = resize(ws.next, n)
	for i := 0; i < n; i++ {
		ws.outWeight[i] = 0
		for _, e := range g.Out(NodeID(i)) {
			ws.outWeight[i] += e.Weight
		}
	}
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// PageRank computes the stationary importance of every node under the
// weighted random-surfer model. Edge weights bias the surfer toward
// stronger relationships. The returned slice is indexed by NodeID and sums
// to 1 (for non-empty graphs).
func (g *Graph) PageRank(opts PageRankOptions) []float64 {
	return g.PageRankWith(nil, opts)
}

// PageRankWith is PageRank reusing the given workspace (nil allocates a
// throwaway one).
func (g *Graph) PageRankWith(ws *PPRWorkspace, opts PageRankOptions) []float64 {
	n := len(g.nodes)
	if n == 0 {
		return nil
	}
	if ws == nil {
		ws = &PPRWorkspace{}
	}
	ws.bind(g)
	for i := range ws.restart {
		ws.restart[i] = 1 / float64(n)
	}
	return g.powerIterate(ws, opts)
}

// PersonalizedPageRank computes PageRank with teleportation restricted to
// the given restart distribution. This is Hive's core context-propagation
// primitive: the restart mass is placed on the nodes of the user's active
// workpad (plus checked-in session), and the stationary distribution
// scores every entity's relevance to that context (paper §2.3, "Hive
// propagates the concepts within the relevant neighborhoods of the
// knowledge network").
//
// restart maps node IDs to non-negative masses; it is normalized
// internally. Nodes outside restart get rank only via graph structure.
func (g *Graph) PersonalizedPageRank(restart map[NodeID]float64, opts PageRankOptions) []float64 {
	return g.PersonalizedPageRankWith(nil, restart, opts)
}

// PersonalizedPageRankWith is PersonalizedPageRank reusing the given
// workspace (nil allocates a throwaway one). The returned rank slice is
// freshly allocated and remains valid after the workspace is reused.
func (g *Graph) PersonalizedPageRankWith(ws *PPRWorkspace, restart map[NodeID]float64, opts PageRankOptions) []float64 {
	n := len(g.nodes)
	if n == 0 {
		return nil
	}
	if ws == nil {
		ws = &PPRWorkspace{}
	}
	ws.bind(g)
	for i := range ws.restart {
		ws.restart[i] = 0
	}
	var total float64
	for id, m := range restart {
		if g.valid(id) && m > 0 {
			ws.restart[id] = m
			total += m
		}
	}
	if total == 0 {
		return g.PageRankWith(ws, opts)
	}
	for i := range ws.restart {
		ws.restart[i] /= total
	}
	return g.powerIterate(ws, opts)
}

// powerIterate runs the damped power iteration over the workspace's
// restart vector and returns a fresh copy of the converged ranks.
func (g *Graph) powerIterate(ws *PPRWorkspace, opts PageRankOptions) []float64 {
	opts = opts.withDefaults()
	n := len(g.nodes)
	rank, next := ws.rank, ws.next
	copy(rank, ws.restart)

	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		var dangling float64
		for i := 0; i < n; i++ {
			if rank[i] == 0 {
				continue
			}
			if ws.outWeight[i] == 0 {
				dangling += rank[i]
				continue
			}
			share := opts.Damping * rank[i] / ws.outWeight[i]
			for _, e := range g.out[g.outOff[i]:g.outOff[i+1]] {
				next[e.Node] += share * e.Weight
			}
		}
		// Dangling mass and teleportation both return to the restart
		// distribution, keeping the chain personalized.
		back := opts.Damping*dangling + (1 - opts.Damping)
		var delta float64
		for i := 0; i < n; i++ {
			next[i] += back * ws.restart[i]
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < opts.Tolerance {
			break
		}
	}
	ws.rank, ws.next = rank, next
	out := make([]float64, n)
	copy(out, rank)
	return out
}

// TopK returns the k highest-scoring node IDs for a score vector indexed
// by NodeID, excluding any IDs in the skip set. Ties break toward lower
// IDs for determinism. Selection is heap-bounded: O(n log k).
func TopK(scores []float64, k int, skip map[NodeID]bool) []NodeID {
	if k <= 0 {
		return nil
	}
	type sc struct {
		id NodeID
		s  float64
	}
	h := topk.New[sc](k, func(a, b sc) bool {
		if a.s != b.s {
			return a.s > b.s
		}
		return a.id < b.id
	})
	for i, s := range scores {
		id := NodeID(i)
		if skip[id] {
			continue
		}
		h.Push(sc{id, s})
	}
	best := h.Sorted()
	ids := make([]NodeID, len(best))
	for i, c := range best {
		ids[i] = c.id
	}
	return ids
}

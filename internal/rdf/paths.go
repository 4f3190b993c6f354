package rdf

import (
	"container/heap"
	"slices"
	"sort"
)

// R2DF ranked path queries [11]: find the k highest-scoring paths between
// two resources, where a path's score is the product of its triple
// weights (weights ≤ 1, so scores only decay with length). The search is
// a best-first expansion over the weighted triple graph; because scores
// are monotonically non-increasing along a path, the frontier's best
// candidate is globally optimal when popped — Dijkstra in the (max, ×)
// semiring.

// PathStep is one traversed triple within a path.
type PathStep struct {
	Triple  Triple
	Forward bool // false when the triple was traversed object->subject
}

// RankedPath is a scored path between two resources.
type RankedPath struct {
	Steps []PathStep
	Score float64
}

// Nodes returns the node sequence of the path, starting at the source.
func (p RankedPath) Nodes() []string {
	if len(p.Steps) == 0 {
		return nil
	}
	nodes := make([]string, 0, len(p.Steps)+1)
	first := p.Steps[0]
	if first.Forward {
		nodes = append(nodes, first.Triple.Subject)
	} else {
		nodes = append(nodes, first.Triple.Object)
	}
	for _, s := range p.Steps {
		if s.Forward {
			nodes = append(nodes, s.Triple.Object)
		} else {
			nodes = append(nodes, s.Triple.Subject)
		}
	}
	return nodes
}

// PathOptions configures RankedPaths.
type PathOptions struct {
	// MaxLength bounds path length in triples. Defaults to 4 when zero —
	// relationship explanations longer than that stop being meaningful to
	// a user.
	MaxLength int
	// Undirected additionally traverses triples object->subject, which
	// Hive needs because evidence like co-authorship is symmetric.
	Undirected bool
	// Predicates restricts traversal to the given predicates (nil = all).
	Predicates []string
}

// frontierItem is one partial path on the search frontier: its last
// node, score and length, and its last step in the search's step arena.
type frontierItem struct {
	node  int32
	score float64
	depth int
	last  int32
}

// step is one traversed arc of a partial path, from node from to
// arc.node. Steps are shared: each points at the step before it (-1 for
// the first).
type step struct {
	parent  int32
	from    int32
	arc     arc
	forward bool
}

// frontierHeap orders partial paths best first: higher score, then
// fewer steps, then by their steps' term and predicate IDs (pathLess). The
// order is total over distinct paths and depends on the KB alone, so
// which of several equal-score paths fill the k answers does not depend
// on the order the triples were added in.
type frontierHeap struct {
	items []frontierItem
	steps *[]step // the search's step arena
}

func (h *frontierHeap) Len() int { return len(h.items) }
func (h *frontierHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.score != b.score {
		return a.score > b.score
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return pathLess(*h.steps, a.last, b.last)
}
func (h *frontierHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *frontierHeap) Push(x interface{}) { h.items = append(h.items, x.(frontierItem)) }
func (h *frontierHeap) Pop() interface{} {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// pathLess compares two equally long partial paths, from their last
// steps back: by the node each step reaches, its predicate, then
// direction (forward first). Paths sharing a step share everything
// before it, so reaching a common step means the paths are equal.
func pathLess(steps []step, x, y int32) bool {
	for x != y {
		a, b := steps[x], steps[y]
		switch {
		case a.arc.node != b.arc.node:
			return a.arc.node < b.arc.node
		case a.arc.pred != b.arc.pred:
			return a.arc.pred < b.arc.pred
		case a.forward != b.forward:
			return a.forward
		}
		x, y = a.parent, b.parent
	}
	return false
}

// RankedPaths returns up to k highest-score loopless paths from src to
// dst. Results are sorted by descending score; equal scores by fewer
// steps, then by the paths' term IDs (frontierHeap), so the answer is a
// function of the stored triples alone.
func (kb *KB) RankedPaths(src, dst string, k int, opts PathOptions) []RankedPath {
	if k <= 0 || src == dst {
		return nil
	}
	from, to := kb.lookup(src), kb.lookup(dst)
	if from < 0 || to < 0 {
		return nil
	}
	maxLen := opts.MaxLength
	if maxLen <= 0 {
		maxLen = 4
	}
	var allowed []bool
	if len(opts.Predicates) > 0 {
		allowed = make([]bool, len(kb.preds))
		for _, p := range opts.Predicates {
			if i, ok := slices.BinarySearch(kb.preds, p); ok {
				allowed[i] = true
			}
		}
	}

	var (
		results []RankedPath
		steps   []step
		onPath  []int32
	)
	pq := &frontierHeap{items: []frontierItem{{node: from, score: 1, last: -1}}, steps: &steps}
	// Best-first search over paths. visits caps re-expansion per node to
	// keep the frontier polynomial while still finding k diverse paths.
	visits := make([]int32, len(kb.termEnd))
	for pq.Len() > 0 && len(results) < k {
		cur := heap.Pop(pq).(frontierItem)
		if cur.node == to {
			results = append(results, kb.rankedPath(steps, cur))
			continue
		}
		if cur.depth >= maxLen || visits[cur.node] >= int32(k) {
			continue
		}
		visits[cur.node]++
		onPath = append(onPath[:0], from)
		for i := cur.last; i >= 0; i = steps[i].parent {
			onPath = append(onPath, steps[i].arc.node)
		}
		expand := func(a arc, forward bool) {
			if slices.Contains(onPath, a.node) || allowed != nil && !allowed[a.pred] {
				return
			}
			steps = append(steps, step{parent: cur.last, from: cur.node, arc: a, forward: forward})
			heap.Push(pq, frontierItem{node: a.node, score: cur.score * a.weight, depth: cur.depth + 1, last: int32(len(steps) - 1)})
		}
		for _, a := range kb.outOf(cur.node) {
			expand(a, true)
		}
		if opts.Undirected {
			for _, a := range kb.inOf(cur.node) {
				expand(a, false)
			}
		}
	}
	// Scores never grow along a path, so the pops came out in frontier
	// order: results need no sort.
	return results
}

// rankedPath materializes the frontier item's path.
func (kb *KB) rankedPath(steps []step, it frontierItem) RankedPath {
	path := make([]PathStep, it.depth)
	for i, at := it.depth-1, it.last; i >= 0; i, at = i-1, steps[at].parent {
		s := steps[at]
		path[i] = PathStep{Triple: kb.triple(s.from, s.arc, s.forward), Forward: s.forward}
	}
	return RankedPath{Steps: path, Score: it.score}
}

// AllPathsNaive enumerates every loopless path from src to dst up to
// maxLen triples via exhaustive DFS and returns the k best. It exists as
// the baseline for experiment E8 (ranked search vs enumeration); it is
// exponential in maxLen by construction.
func (kb *KB) AllPathsNaive(src, dst string, k, maxLen int, undirected bool) []RankedPath {
	if maxLen <= 0 {
		maxLen = 4
	}
	from, to := kb.lookup(src), kb.lookup(dst)
	if from < 0 || to < 0 {
		return nil
	}
	var results []RankedPath
	var steps []PathStep
	onPath := make([]bool, len(kb.termEnd))
	onPath[from] = true
	var dfs func(node int32, score float64)
	visit := func(node int32, a arc, forward bool, score float64) {
		if onPath[a.node] {
			return
		}
		onPath[a.node] = true
		steps = append(steps, PathStep{Triple: kb.triple(node, a, forward), Forward: forward})
		dfs(a.node, score*a.weight)
		steps = steps[:len(steps)-1]
		onPath[a.node] = false
	}
	dfs = func(node int32, score float64) {
		if node == to {
			results = append(results, RankedPath{
				Steps: append([]PathStep(nil), steps...),
				Score: score,
			})
			return
		}
		if len(steps) >= maxLen {
			return
		}
		for _, a := range kb.outOf(node) {
			visit(node, a, true, score)
		}
		if undirected {
			for _, a := range kb.inOf(node) {
				visit(node, a, false, score)
			}
		}
	}
	dfs(from, 1)
	sort.Slice(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

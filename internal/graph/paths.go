package graph

import (
	"container/heap"
	"errors"
	"math"
)

// ErrNoPath is returned when no path connects the requested endpoints.
var ErrNoPath = errors.New("graph: no path")

// Path is a sequence of nodes together with the total cost of traversing
// the edges between them.
type Path struct {
	Nodes []NodeID
	Cost  float64
}

// CostFunc maps an edge to a non-negative traversal cost. Higher-weight
// edges usually mean *stronger* relationships, so callers typically invert
// the weight (see InverseWeightCost).
type CostFunc func(Edge) float64

// UnitCost charges 1 per edge regardless of weight (hop count).
func UnitCost(Edge) float64 { return 1 }

// InverseWeightCost charges 1/(1+w): strong edges are cheap to traverse.
// This is the cost model used by Hive's relationship-explanation search,
// where the "best" explanation path follows the strongest evidence.
func InverseWeightCost(e Edge) float64 { return 1 / (1 + e.Weight) }

// ShortestPath computes the minimum-cost path between two nodes with
// Dijkstra's algorithm under the given cost function. Costs must be
// non-negative.
func (g *Graph) ShortestPath(from, to NodeID, cost CostFunc) (Path, error) {
	if !g.valid(from) || !g.valid(to) {
		return Path{}, ErrNodeNotFound
	}
	dist, prev := g.dijkstra(from, to, cost, nil, nil)
	if math.IsInf(dist[to], 1) {
		return Path{}, ErrNoPath
	}
	return Path{Nodes: buildPath(prev, from, to), Cost: dist[to]}, nil
}

// dijkstra runs Dijkstra from `from`; when `to` is valid, it may stop once
// `to` is settled. bannedNodes and bannedEdges (from-node -> set of
// to-nodes) support Yen's algorithm.
func (g *Graph) dijkstra(from, to NodeID, cost CostFunc, bannedNodes map[NodeID]bool, bannedEdges map[NodeID]map[NodeID]bool) ([]float64, []NodeID) {
	n := len(g.nodes)
	dist := make([]float64, n)
	prev := make([]NodeID, n)
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
		for _, e := range g.Out(cur.id) {
			if bannedNodes[e.Node] {
				continue
			}
			if m, ok := bannedEdges[cur.id]; ok && m[e.Node] {
				continue
			}
			c := cost(e)
			if c < 0 {
				c = 0
			}
			nd := cur.cost + c
			if nd < dist[e.Node] {
				dist[e.Node] = nd
				prev[e.Node] = cur.id
				heap.Push(pq, pathItem{id: e.Node, cost: nd})
			}
		}
	}
	return dist, prev
}

func buildPath(prev []NodeID, from, to NodeID) []NodeID {
	var rev []NodeID
	for at := to; at != Invalid; at = prev[at] {
		rev = append(rev, at)
		if at == from {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// KShortestPaths returns up to k loopless minimum-cost paths between two
// nodes using Yen's algorithm. Hive uses this to present several
// alternative relationship explanations between two researchers
// (Figure 2 of the paper shows exactly such a list).
func (g *Graph) KShortestPaths(from, to NodeID, k int, cost CostFunc) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := g.ShortestPath(from, to, cost)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prevPath := paths[len(paths)-1].Nodes
		for i := 0; i < len(prevPath)-1; i++ {
			spurNode := prevPath[i]
			rootPath := prevPath[:i+1]

			bannedEdges := make(map[NodeID]map[NodeID]bool)
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootPath) {
					m := bannedEdges[p.Nodes[i]]
					if m == nil {
						m = make(map[NodeID]bool)
						bannedEdges[p.Nodes[i]] = m
					}
					m[p.Nodes[i+1]] = true
				}
			}
			bannedNodes := make(map[NodeID]bool, i)
			for _, id := range rootPath[:i] {
				bannedNodes[id] = true
			}

			dist, prev := g.dijkstra(spurNode, to, cost, bannedNodes, bannedEdges)
			if math.IsInf(dist[to], 1) {
				continue
			}
			spurPath := buildPath(prev, spurNode, to)
			total := append(append([]NodeID(nil), rootPath[:i]...), spurPath...)
			c := g.pathCost(total, cost)
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
	return paths, nil
}

func (g *Graph) pathCost(nodes []NodeID, cost CostFunc) float64 {
	var total float64
	for i := 0; i+1 < len(nodes); i++ {
		best := math.Inf(1)
		for _, e := range g.Out(nodes[i]) {
			if e.Node == nodes[i+1] {
				if c := cost(e); c < best {
					best = c
				}
			}
		}
		total += best
	}
	return total
}

func equalPrefix(p, prefix []NodeID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, nodes []NodeID) bool {
	for _, p := range paths {
		if len(p.Nodes) != len(nodes) {
			continue
		}
		same := true
		for i := range nodes {
			if p.Nodes[i] != nodes[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

type pathItem struct {
	id   NodeID
	cost float64
}

type pathHeap []pathItem

func (h pathHeap) Len() int            { return len(h) }
func (h pathHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(pathItem)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

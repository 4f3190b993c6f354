package graph

// BFS visits nodes in breadth-first order from start, following outgoing
// edges, and calls visit with each node and its hop distance. Traversal of
// a branch stops when visit returns false for its node.
func (g *Graph) BFS(start NodeID, visit func(id NodeID, depth int) bool) {
	if !g.valid(start) {
		return
	}
	seen := make([]bool, len(g.nodes))
	type item struct {
		id    NodeID
		depth int
	}
	queue := []item{{start, 0}}
	seen[start] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !visit(cur.id, cur.depth) {
			continue
		}
		for _, e := range g.Out(cur.id) {
			if !seen[e.Node] {
				seen[e.Node] = true
				queue = append(queue, item{e.Node, cur.depth + 1})
			}
		}
	}
}

// DFS visits nodes in depth-first (preorder) order from start. Traversal of
// a branch stops when visit returns false.
func (g *Graph) DFS(start NodeID, visit func(id NodeID) bool) {
	if !g.valid(start) {
		return
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if !visit(id) {
			continue
		}
		out := g.Out(id)
		for i := len(out) - 1; i >= 0; i-- {
			if !seen[out[i].Node] {
				stack = append(stack, out[i].Node)
			}
		}
	}
}

// WithinHops returns all nodes reachable from start in at most maxHops
// steps (excluding start itself), with their hop distance.
func (g *Graph) WithinHops(start NodeID, maxHops int) map[NodeID]int {
	res := make(map[NodeID]int)
	g.BFS(start, func(id NodeID, depth int) bool {
		if depth > maxHops {
			return false
		}
		if id != start {
			res[id] = depth
		}
		return depth < maxHops
	})
	return res
}

// Components returns the weakly connected components of the graph as a
// slice of node-ID sets, largest first, treating every edge as undirected.
func (g *Graph) Components() [][]NodeID {
	n := len(g.nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := len(comps)
		var members []NodeID
		stack := []NodeID{NodeID(s)}
		comp[s] = c
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, id)
			for _, e := range g.Out(id) {
				if comp[e.Node] < 0 {
					comp[e.Node] = c
					stack = append(stack, e.Node)
				}
			}
			for _, e := range g.In(id) {
				if comp[e.Node] < 0 {
					comp[e.Node] = c
					stack = append(stack, e.Node)
				}
			}
		}
		comps = append(comps, members)
	}
	// Largest first, deterministic within size by first member.
	for i := range comps {
		sortNodeIDs(comps[i])
	}
	sortComponents(comps)
	return comps
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func sortComponents(comps [][]NodeID) {
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && less(comps[j], comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
}

func less(a, b []NodeID) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	if len(a) == 0 {
		return false
	}
	return a[0] < b[0]
}

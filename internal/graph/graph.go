// Package graph implements the weighted, labeled multigraph that underlies
// every knowledge layer in Hive: the social connection layer, the
// co-authorship and citation layers, concept maps, and the integrated
// context network of Figure 3 in the paper.
//
// The graph is directed; undirected relationships (e.g. co-authorship) are
// stored as a pair of arcs. Nodes and edges carry string labels so a single
// graph can hold heterogeneous entities ("user", "paper", "concept", ...)
// and relationships ("coauthor", "cites", "follows", ...).
//
// All mutating methods are safe for a single writer; concurrent readers
// must be coordinated by the caller (the higher layers wrap a Graph in a
// sync.RWMutex, which keeps this package allocation-lean).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node within a Graph. IDs are assigned densely from 0
// by AddNode, which lets algorithms use slice-indexed bookkeeping.
type NodeID int32

// Invalid is returned by lookup helpers when no node matches.
const Invalid NodeID = -1

// ErrNodeNotFound is returned when an operation references a node that is
// not present in the graph.
var ErrNodeNotFound = errors.New("graph: node not found")

// ErrDuplicateKey is returned by AddNode when the external key is already
// bound to another node.
var ErrDuplicateKey = errors.New("graph: duplicate node key")

// Node is a vertex in the knowledge graph. Key is the external identifier
// (user ID, paper DOI, concept term); Label classifies the entity.
type Node struct {
	ID    NodeID
	Key   string
	Label string
	// Weight is the node's intrinsic significance (concept significance,
	// user activity level). Algorithms that do not use it leave it at 0.
	Weight float64
}

// Edge is a directed, weighted, labeled arc.
type Edge struct {
	From   NodeID
	To     NodeID
	Label  string
	Weight float64
}

// Graph is a directed, weighted, labeled multigraph.
type Graph struct {
	nodes  []Node
	out    [][]Edge
	in     [][]Edge
	byKey  map[string]NodeID
	nEdges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byKey: make(map[string]NodeID)}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// AddNode inserts a node with the given external key and label and returns
// its dense ID. It fails with ErrDuplicateKey if the key is taken.
func (g *Graph) AddNode(key, label string) (NodeID, error) {
	if _, ok := g.byKey[key]; ok {
		return Invalid, fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Key: key, Label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byKey[key] = id
	return id, nil
}

// EnsureNode returns the node bound to key, creating it with the given
// label if absent. The label of an existing node is not changed.
func (g *Graph) EnsureNode(key, label string) NodeID {
	if id, ok := g.byKey[key]; ok {
		return id
	}
	id, _ := g.AddNode(key, label)
	return id
}

// Lookup returns the ID bound to an external key, or Invalid.
func (g *Graph) Lookup(key string) NodeID {
	if id, ok := g.byKey[key]; ok {
		return id
	}
	return Invalid
}

// Node returns a copy of the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.valid(id) {
		return Node{}, fmt.Errorf("%w: id %d", ErrNodeNotFound, id)
	}
	return g.nodes[id], nil
}

// SetNodeWeight updates the intrinsic weight of a node.
func (g *Graph) SetNodeWeight(id NodeID, w float64) error {
	if !g.valid(id) {
		return fmt.Errorf("%w: id %d", ErrNodeNotFound, id)
	}
	g.nodes[id].Weight = w
	return nil
}

// Nodes calls fn for every node; iteration stops if fn returns false.
func (g *Graph) Nodes(fn func(Node) bool) {
	for _, n := range g.nodes {
		if !fn(n) {
			return
		}
	}
}

// NodesByLabel returns the IDs of all nodes carrying the given label, in
// insertion order.
func (g *Graph) NodesByLabel(label string) []NodeID {
	var ids []NodeID
	for _, n := range g.nodes {
		if n.Label == label {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// AddEdge inserts a directed edge. Parallel edges with distinct labels are
// allowed; adding an edge with the same endpoints and label accumulates
// its weight onto the existing edge (the natural semantics for evidence
// layers, where repeated observations reinforce a relationship).
func (g *Graph) AddEdge(from, to NodeID, label string, weight float64) error {
	if !g.valid(from) {
		return fmt.Errorf("%w: from %d", ErrNodeNotFound, from)
	}
	if !g.valid(to) {
		return fmt.Errorf("%w: to %d", ErrNodeNotFound, to)
	}
	for i := range g.out[from] {
		e := &g.out[from][i]
		if e.To == to && e.Label == label {
			e.Weight += weight
			for j := range g.in[to] {
				f := &g.in[to][j]
				if f.From == from && f.Label == label {
					f.Weight += weight
					break
				}
			}
			return nil
		}
	}
	e := Edge{From: from, To: to, Label: label, Weight: weight}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.nEdges++
	return nil
}

// AddUndirected inserts the edge in both directions.
func (g *Graph) AddUndirected(a, b NodeID, label string, weight float64) error {
	if err := g.AddEdge(a, b, label, weight); err != nil {
		return err
	}
	return g.AddEdge(b, a, label, weight)
}

// Out returns the outgoing edges of a node. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(id NodeID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.out[id]
}

// In returns the incoming edges of a node. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) In(id NodeID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.in[id]
}

// EdgeBetween returns the first edge from -> to with the given label, if
// any. An empty label matches any label.
func (g *Graph) EdgeBetween(from, to NodeID, label string) (Edge, bool) {
	if !g.valid(from) {
		return Edge{}, false
	}
	for _, e := range g.out[from] {
		if e.To == to && (label == "" || e.Label == label) {
			return e, true
		}
	}
	return Edge{}, false
}

// OutDegree reports the out-degree of a node.
func (g *Graph) OutDegree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return len(g.out[id])
}

// InDegree reports the in-degree of a node.
func (g *Graph) InDegree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return len(g.in[id])
}

// Neighbors returns the distinct out-neighbors of a node, sorted by ID.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if !g.valid(id) {
		return nil
	}
	seen := make(map[NodeID]struct{}, len(g.out[id]))
	var ns []NodeID
	for _, e := range g.out[id] {
		if _, ok := seen[e.To]; !ok {
			seen[e.To] = struct{}{}
			ns = append(ns, e.To)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:  append([]Node(nil), g.nodes...),
		out:    make([][]Edge, len(g.out)),
		in:     make([][]Edge, len(g.in)),
		byKey:  make(map[string]NodeID, len(g.byKey)),
		nEdges: g.nEdges,
	}
	for i := range g.out {
		c.out[i] = append([]Edge(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]Edge(nil), g.in[i]...)
	}
	for k, v := range g.byKey {
		c.byKey[k] = v
	}
	return c
}

// TotalOutWeight returns the sum of outgoing edge weights of a node.
func (g *Graph) TotalOutWeight(id NodeID) float64 {
	var s float64
	for _, e := range g.Out(id) {
		s += e.Weight
	}
	return s
}

func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

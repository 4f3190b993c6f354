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
// A graph is assembled by a Builder and frozen once into a Graph: one
// offsets array per direction over contiguous 16-byte arc records, with
// arc labels interned, so a snapshot graph costs no string and no slice
// per arc. A Graph is immutable and safe for concurrent readers.
package graph

import (
	"errors"
	"sort"
	"unsafe"
)

// NodeID identifies a node within a Graph. IDs are assigned densely from 0
// by AddNode, which lets algorithms use slice-indexed bookkeeping.
type NodeID int32

// Invalid is returned by lookup helpers when no node matches.
const Invalid NodeID = -1

// LabelID identifies an interned arc label within one graph.
type LabelID int32

// NoLabel is returned by LabelID for a label no arc of the graph carries.
const NoLabel LabelID = -1

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

// Edge is one stored arc as Out and In return it: the node at its far
// end (the target of an out-arc, the source of an in-arc), its interned
// label (see Graph.Label) and its weight.
type Edge struct {
	Node   NodeID
	Label  LabelID
	Weight float64
}

// Graph is a frozen directed, weighted, labeled multigraph. Node i's
// out-arcs are out[outOff[i]:outOff[i+1]] in the order their (to, label)
// pair was first added, and likewise for in-arcs by source.
type Graph struct {
	nodes  []Node
	byKey  map[string]NodeID
	labels []string
	outOff []int32
	out    []Edge
	inOff  []int32
	in     []Edge
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.out) }

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
		return Node{}, nodeNotFound(id)
	}
	return g.nodes[id], nil
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

// Label returns the text of an interned arc label.
func (g *Graph) Label(l LabelID) string {
	if l < 0 || int(l) >= len(g.labels) {
		return ""
	}
	return g.labels[l]
}

// LabelID returns the ID of an arc label, or NoLabel when no arc carries
// it.
func (g *Graph) LabelID(label string) LabelID {
	for i, s := range g.labels {
		if s == label {
			return LabelID(i)
		}
	}
	return NoLabel
}

// Out returns the outgoing arcs of a node. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(id NodeID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.out[g.outOff[id]:g.outOff[id+1]]
}

// In returns the incoming arcs of a node; each arc's Node is its source.
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) In(id NodeID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.in[g.inOff[id]:g.inOff[id+1]]
}

// EdgeBetween returns the first arc from -> to with the given label, if
// any. An empty label matches any label.
func (g *Graph) EdgeBetween(from, to NodeID, label string) (Edge, bool) {
	want := NoLabel
	if label != "" {
		if want = g.LabelID(label); want == NoLabel {
			return Edge{}, false
		}
	}
	for _, e := range g.Out(from) {
		if e.Node == to && (want == NoLabel || e.Label == want) {
			return e, true
		}
	}
	return Edge{}, false
}

// OutDegree reports the out-degree of a node.
func (g *Graph) OutDegree(id NodeID) int { return len(g.Out(id)) }

// InDegree reports the in-degree of a node.
func (g *Graph) InDegree(id NodeID) int { return len(g.In(id)) }

// Neighbors returns the distinct out-neighbors of a node, sorted by ID.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	out := g.Out(id)
	if len(out) == 0 {
		return nil
	}
	ns := make([]NodeID, len(out))
	for i, e := range out {
		ns[i] = e.Node
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	k := 1
	for _, n := range ns[1:] {
		if n != ns[k-1] {
			ns[k] = n
			k++
		}
	}
	return ns[:k]
}

// TotalOutWeight returns the sum of outgoing edge weights of a node.
func (g *Graph) TotalOutWeight(id NodeID) float64 {
	var s float64
	for _, e := range g.Out(id) {
		s += e.Weight
	}
	return s
}

// Bytes reports the size of the graph's arrays: node records, the two
// offset arrays, the two arc arrays and the label table. Node keys and
// the key map are not counted; the keys are shared with the snapshot's
// other tables.
func (g *Graph) Bytes() int {
	n := len(g.nodes)*int(unsafe.Sizeof(Node{})) +
		(len(g.outOff)+len(g.inOff))*4 +
		(len(g.out)+len(g.in))*int(unsafe.Sizeof(Edge{}))
	for _, l := range g.labels {
		n += int(unsafe.Sizeof(l)) + len(l)
	}
	return n
}

func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

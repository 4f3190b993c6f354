package graph

import (
	"fmt"
	"slices"
)

// Builder assembles a graph: nodes and arcs are added, a repeated arc
// is merged into the first through a hash index, and Freeze lays the
// graph out flat. A Builder is for a single writer.
type Builder struct {
	nodes    []Node
	byKey    map[string]NodeID
	labels   []string
	labelIDs map[string]LabelID
	arcs     []arc            // distinct arcs in the order first added
	arcIdx   map[arcKey]int32 // position of each arc in arcs
}

type arcKey struct {
	from, to NodeID
	label    LabelID
}

type arc struct {
	arcKey
	weight float64
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		byKey:    make(map[string]NodeID),
		labelIDs: make(map[string]LabelID),
		arcIdx:   make(map[arcKey]int32),
	}
}

// NumNodes reports the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// AddNode inserts a node with the given external key and label and returns
// its dense ID. It fails with ErrDuplicateKey if the key is taken.
func (b *Builder) AddNode(key, label string) (NodeID, error) {
	if _, ok := b.byKey[key]; ok {
		return Invalid, fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Key: key, Label: label})
	b.byKey[key] = id
	return id, nil
}

// EnsureNode returns the node bound to key, creating it with the given
// label if absent. The label of an existing node is not changed.
func (b *Builder) EnsureNode(key, label string) NodeID {
	if id, ok := b.byKey[key]; ok {
		return id
	}
	id, _ := b.AddNode(key, label)
	return id
}

// Lookup returns the ID bound to an external key, or Invalid.
func (b *Builder) Lookup(key string) NodeID {
	if id, ok := b.byKey[key]; ok {
		return id
	}
	return Invalid
}

// SetNodeWeight updates the intrinsic weight of a node.
func (b *Builder) SetNodeWeight(id NodeID, w float64) error {
	if id < 0 || int(id) >= len(b.nodes) {
		return nodeNotFound(id)
	}
	b.nodes[id].Weight = w
	return nil
}

// AddEdge records a directed edge. Parallel edges with distinct labels are
// allowed; adding an edge with the same endpoints and label accumulates
// its weight onto the existing edge (the natural semantics for evidence
// layers, where repeated observations reinforce a relationship). The
// frozen arc sits where its (to, label) pair was first added, and its
// weight is the sum of the added weights in the order they were added.
func (b *Builder) AddEdge(from, to NodeID, label string, weight float64) error {
	if from < 0 || int(from) >= len(b.nodes) {
		return fmt.Errorf("%w: from %d", ErrNodeNotFound, from)
	}
	if to < 0 || int(to) >= len(b.nodes) {
		return fmt.Errorf("%w: to %d", ErrNodeNotFound, to)
	}
	l, ok := b.labelIDs[label]
	if !ok {
		l = LabelID(len(b.labels))
		b.labels = append(b.labels, label)
		b.labelIDs[label] = l
	}
	k := arcKey{from, to, l}
	if i, ok := b.arcIdx[k]; ok {
		b.arcs[i].weight += weight
		return nil
	}
	b.arcIdx[k] = int32(len(b.arcs))
	b.arcs = append(b.arcs, arc{k, weight})
	return nil
}

// AddUndirected inserts the edge in both directions.
func (b *Builder) AddUndirected(x, y NodeID, label string, weight float64) error {
	if err := b.AddEdge(x, y, label, weight); err != nil {
		return err
	}
	return b.AddEdge(y, x, label, weight)
}

// Freeze lays the graph out flat. The builder hands its node table to
// the graph and must not be used afterwards.
func (b *Builder) Freeze() *Graph {
	n := len(b.nodes)
	g := &Graph{
		nodes:  b.nodes,
		byKey:  b.byKey,
		labels: b.labels,
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
		out:    make([]Edge, len(b.arcs)),
		in:     make([]Edge, len(b.arcs)),
	}
	for _, a := range b.arcs {
		g.outOff[a.from+1]++
		g.inOff[a.to+1]++
	}
	for i := 0; i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	// Place the arcs in insertion order: each node's lists keep the
	// order in which their arcs were first added.
	outAt := slices.Clone(g.outOff[:n])
	inAt := slices.Clone(g.inOff[:n])
	for _, a := range b.arcs {
		g.out[outAt[a.from]] = Edge{Node: a.to, Label: a.label, Weight: a.weight}
		outAt[a.from]++
		g.in[inAt[a.to]] = Edge{Node: a.from, Label: a.label, Weight: a.weight}
		inAt[a.to]++
	}
	*b = Builder{}
	return g
}

func nodeNotFound(id NodeID) error {
	return fmt.Errorf("%w: id %d", ErrNodeNotFound, id)
}

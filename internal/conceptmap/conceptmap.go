// Package conceptmap implements Hive's concept-map layer (paper §2.1,
// ref [10]): a weighted graph of domain concepts with significance
// scores, bootstrapped semi-automatically from a set of contextually
// relevant documents, plus spreading-activation propagation that turns a
// handful of context concepts into a relevance field over the whole map.
package conceptmap

import (
	"errors"
	"fmt"
	"sort"

	"hive/internal/graph"
	"hive/internal/textindex"
)

// ErrEmpty is returned when bootstrapping from no usable text.
var ErrEmpty = errors.New("conceptmap: no content to bootstrap from")

// Concept is a node of the concept map.
type Concept struct {
	Term         string
	Significance float64
}

// Map is a frozen weighted concept graph. Edge weights encode
// co-occurrence strength between concepts; node weights hold each
// concept's significance from extraction.
type Map struct {
	g *graph.Graph
}

// LabelConcept is the node label used in the underlying graph.
const LabelConcept = "concept"

// EdgeRelated is the edge label for concept-concept relations.
const EdgeRelated = "related"

// New returns an empty concept map.
func New() *Map { return NewBuilder().Freeze() }

// Builder assembles a concept map; Freeze lays it out for reading.
type Builder struct {
	g   *graph.Builder
	sig []float64 // significance by node ID
}

// NewBuilder returns an empty concept-map builder.
func NewBuilder() *Builder { return &Builder{g: graph.NewBuilder()} }

// Freeze returns the built map. The builder must not be used afterwards.
func (b *Builder) Freeze() *Map {
	for id, s := range b.sig {
		_ = b.g.SetNodeWeight(graph.NodeID(id), s)
	}
	return &Map{g: b.g.Freeze()}
}

// BootstrapOptions tunes Bootstrap.
type BootstrapOptions struct {
	// MaxConcepts bounds the number of extracted concepts. Defaults 50.
	MaxConcepts int
	// Window is the co-occurrence window (in content words) that creates
	// concept-concept edges. Defaults 6.
	Window int
}

// Bootstrap learns a concept map from documents: concepts are the top
// TextRank keyphrases across the corpus (significance = aggregated
// score), and edges connect concepts co-occurring within a window,
// weighted by count. This is the "learn key concepts to bootstrap concept
// map from a given set of contextually-relevant documents" service of
// Table 1.
func Bootstrap(docs []string, opts BootstrapOptions) (*Map, error) {
	if opts.MaxConcepts == 0 {
		opts.MaxConcepts = 50
	}
	if opts.Window == 0 {
		opts.Window = 6
	}
	// Aggregate keyphrase scores across documents.
	agg := map[string]float64{}
	for _, d := range docs {
		for _, kp := range textindex.ExtractKeyphrases(d, 0) {
			agg[kp.Term] += kp.Score
		}
	}
	if len(agg) == 0 {
		return nil, ErrEmpty
	}
	type ts struct {
		t string
		s float64
	}
	all := make([]ts, 0, len(agg))
	for t, s := range agg {
		all = append(all, ts{t, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].t < all[j].t
	})
	if len(all) > opts.MaxConcepts {
		all = all[:opts.MaxConcepts]
	}

	m := NewBuilder()
	keep := map[string]bool{}
	for _, c := range all {
		m.AddConcept(c.t, c.s)
		keep[textindex.Stem(c.t)] = true
	}
	// Second pass: co-occurrence edges between kept concepts.
	stemToTerm := map[string]string{}
	for _, c := range all {
		stemToTerm[textindex.Stem(c.t)] = c.t
	}
	for _, d := range docs {
		stems := textindex.RawTerms(d)
		for i, w := range stems {
			stems[i] = textindex.Stem(w)
		}
		for i, si := range stems {
			if !keep[si] {
				continue
			}
			for j := i + 1; j < len(stems) && j <= i+opts.Window; j++ {
				sj := stems[j]
				if !keep[sj] || si == sj {
					continue
				}
				m.Relate(stemToTerm[si], stemToTerm[sj], 1)
			}
		}
	}
	return m.Freeze(), nil
}

// AddConcept inserts a concept (or raises an existing concept's
// significance to the given value if larger).
func (b *Builder) AddConcept(term string, significance float64) {
	if id := b.g.Lookup(term); id != graph.Invalid {
		b.sig[id] = max(b.sig[id], significance)
		return
	}
	b.g.EnsureNode(term, LabelConcept)
	b.sig = append(b.sig, significance)
}

// concept returns the term's node, adding it with zero significance
// when unknown.
func (b *Builder) concept(term string) graph.NodeID {
	if b.g.Lookup(term) == graph.Invalid {
		b.AddConcept(term, 0)
	}
	return b.g.Lookup(term)
}

// Relate adds (or strengthens) an undirected relation between two
// concepts; unknown concepts are created with zero significance.
func (b *Builder) Relate(x, y string, weight float64) {
	if x == y {
		return
	}
	_ = b.g.AddUndirected(b.concept(x), b.concept(y), EdgeRelated, weight)
}

// Bytes reports the size of the map's frozen graph (graph.Graph.Bytes).
func (m *Map) Bytes() int { return m.g.Bytes() }

// Len reports the number of concepts.
func (m *Map) Len() int { return m.g.NumNodes() }

// Concepts returns all concepts sorted by descending significance.
func (m *Map) Concepts() []Concept {
	out := make([]Concept, 0, m.Len())
	m.g.Nodes(func(n graph.Node) bool {
		out = append(out, Concept{Term: n.Key, Significance: n.Weight})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Significance != out[j].Significance {
			return out[i].Significance > out[j].Significance
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// Has reports whether a concept exists.
func (m *Map) Has(term string) bool { return m.g.Lookup(term) != graph.Invalid }

// Significance returns a concept's significance (0 when absent).
func (m *Map) Significance(term string) float64 {
	n, err := m.g.Node(m.g.Lookup(term))
	if err != nil {
		return 0
	}
	return n.Weight
}

// RelationWeight returns the relation strength between two concepts.
func (m *Map) RelationWeight(a, b string) float64 {
	if e, ok := m.g.EdgeBetween(m.g.Lookup(a), m.g.Lookup(b), EdgeRelated); ok {
		return e.Weight
	}
	return 0
}

// Neighbors returns the related concepts of a term, sorted by relation
// weight.
func (m *Map) Neighbors(term string) []Concept {
	var out []Concept
	for _, e := range m.g.Out(m.g.Lookup(term)) {
		n, err := m.g.Node(e.Node)
		if err != nil {
			continue
		}
		out = append(out, Concept{Term: n.Key, Significance: e.Weight})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Significance != out[j].Significance {
			return out[i].Significance > out[j].Significance
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// Activate runs spreading activation from the seed terms: personalized
// PageRank over the concept graph with restart on the seeds. The result
// maps every concept to its contextual relevance — the §2.3 propagation
// of concepts "within the relevant neighborhoods of the knowledge
// network". Unknown seeds are ignored; with no known seed, significance
// is returned as the neutral field.
func (m *Map) Activate(seeds []string) map[string]float64 {
	restart := map[graph.NodeID]float64{}
	for _, s := range seeds {
		if id := m.g.Lookup(s); id != graph.Invalid {
			restart[id] = 1
		}
	}
	out := make(map[string]float64, m.Len())
	if len(restart) == 0 {
		m.g.Nodes(func(n graph.Node) bool {
			out[n.Key] = n.Weight
			return true
		})
		return out
	}
	pr := m.g.PersonalizedPageRank(restart, graph.PageRankOptions{Damping: 0.7})
	m.g.Nodes(func(n graph.Node) bool {
		out[n.Key] = pr[n.ID]
		return true
	})
	return out
}

// ContextVector converts an activation field into a term-weight vector
// usable as a search/recommendation context, stemming terms to match the
// text engine's analysis chain.
func ContextVector(activation map[string]float64) textindex.Vector {
	v := make(textindex.Vector, len(activation))
	for term, w := range activation {
		if w <= 0 {
			continue
		}
		v[textindex.Stem(term)] += w
	}
	return v
}

// String summarizes the map for debugging.
func (m *Map) String() string {
	return fmt.Sprintf("conceptmap(%d concepts, %d relations)", m.Len(), m.g.NumEdges()/2)
}

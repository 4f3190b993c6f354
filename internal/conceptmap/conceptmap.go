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

// Map is a weighted concept graph. Edge weights encode co-occurrence
// strength between concepts; node significance comes from extraction.
type Map struct {
	g        *graph.Graph
	byTerm   map[string]graph.NodeID
	concepts []Concept
}

// LabelConcept is the node label used in the underlying graph.
const LabelConcept = "concept"

// EdgeRelated is the edge label for concept-concept relations.
const EdgeRelated = "related"

// New returns an empty concept map.
func New() *Map {
	return &Map{g: graph.New(), byTerm: make(map[string]graph.NodeID)}
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

	m := New()
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
	return m, nil
}

// AddConcept inserts a concept (or raises an existing concept's
// significance to the given value if larger).
func (m *Map) AddConcept(term string, significance float64) {
	if id, ok := m.byTerm[term]; ok {
		if n, err := m.g.Node(id); err == nil && significance > n.Weight {
			_ = m.g.SetNodeWeight(id, significance)
			for i := range m.concepts {
				if m.concepts[i].Term == term {
					m.concepts[i].Significance = significance
				}
			}
		}
		return
	}
	id := m.g.EnsureNode(term, LabelConcept)
	_ = m.g.SetNodeWeight(id, significance)
	m.byTerm[term] = id
	m.concepts = append(m.concepts, Concept{Term: term, Significance: significance})
}

// Relate adds (or strengthens) an undirected relation between two
// concepts; unknown concepts are created with zero significance.
func (m *Map) Relate(a, b string, weight float64) {
	if a == b {
		return
	}
	ia, ok := m.byTerm[a]
	if !ok {
		m.AddConcept(a, 0)
		ia = m.byTerm[a]
	}
	ib, ok := m.byTerm[b]
	if !ok {
		m.AddConcept(b, 0)
		ib = m.byTerm[b]
	}
	_ = m.g.AddUndirected(ia, ib, EdgeRelated, weight)
}

// Len reports the number of concepts.
func (m *Map) Len() int { return len(m.concepts) }

// Concepts returns all concepts sorted by descending significance.
func (m *Map) Concepts() []Concept {
	out := append([]Concept(nil), m.concepts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Significance != out[j].Significance {
			return out[i].Significance > out[j].Significance
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// Has reports whether a concept exists.
func (m *Map) Has(term string) bool {
	_, ok := m.byTerm[term]
	return ok
}

// Significance returns a concept's significance (0 when absent).
func (m *Map) Significance(term string) float64 {
	id, ok := m.byTerm[term]
	if !ok {
		return 0
	}
	n, err := m.g.Node(id)
	if err != nil {
		return 0
	}
	return n.Weight
}

// RelationWeight returns the relation strength between two concepts.
func (m *Map) RelationWeight(a, b string) float64 {
	ia, ok := m.byTerm[a]
	if !ok {
		return 0
	}
	ib, ok := m.byTerm[b]
	if !ok {
		return 0
	}
	if e, ok := m.g.EdgeBetween(ia, ib, EdgeRelated); ok {
		return e.Weight
	}
	return 0
}

// Neighbors returns the related concepts of a term, sorted by relation
// weight.
func (m *Map) Neighbors(term string) []Concept {
	id, ok := m.byTerm[term]
	if !ok {
		return nil
	}
	var out []Concept
	for _, e := range m.g.Out(id) {
		n, err := m.g.Node(e.To)
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
		if id, ok := m.byTerm[s]; ok {
			restart[id] = 1
		}
	}
	out := make(map[string]float64, len(m.concepts))
	if len(restart) == 0 {
		for _, c := range m.concepts {
			out[c.Term] = c.Significance
		}
		return out
	}
	pr := m.g.PersonalizedPageRank(restart, graph.PageRankOptions{Damping: 0.7})
	for term, id := range m.byTerm {
		out[term] = pr[id]
	}
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

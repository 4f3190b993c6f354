// Package align implements Hive's network layer alignment and integration
// (paper §2.2, Figure 3). The "context network" is a stack of layers —
// social connections, co-authorship, citations, concept maps, session
// co-attendance — whose node vocabularies only partially overlap and may
// use different surface forms for the same entity. Alignment identifies
// cross-layer mappings (lexical + structural evidence, producing *imprecise*
// scored matches as the paper stresses); integration merges the aligned
// layers into a single weighted graph where agreeing layers reinforce an
// edge and disagreeing layers leave it weak.
package align

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hive/internal/graph"
	"hive/internal/textindex"
)

// ErrNoLayers is returned when integrating an empty layer set.
var ErrNoLayers = errors.New("align: no layers")

// Layer is one knowledge layer: a named graph with a trust factor that
// scales its edges' contribution to the integrated network.
type Layer struct {
	Name  string
	Trust float64 // in (0, 1]; defaults to 1 when zero
	G     *graph.Graph
}

func (l *Layer) trust() float64 {
	if l.Trust <= 0 || l.Trust > 1 {
		return 1
	}
	return l.Trust
}

// Mapping is a scored correspondence between a node of layer A and a node
// of layer B.
type Mapping struct {
	A, B  string
	Score float64
}

// Options tunes the aligner.
type Options struct {
	// MinLexical is the minimum lexical similarity for a candidate pair.
	// Zero or negative means the default, 0.5. It is always positive, so
	// a candidate shares a stemmed token or the exact key with its
	// partner: Align scores only such pairs.
	MinLexical float64
	// LexicalWeight is the weight of lexical vs structural similarity in
	// the final score. Defaults to 0.6.
	LexicalWeight float64
	// MinScore drops final mappings below this confidence. Defaults to
	// 0.3.
	MinScore float64
}

func (o Options) withDefaults() Options {
	if o.MinLexical <= 0 {
		o.MinLexical = 0.5
	}
	if o.LexicalWeight == 0 {
		o.LexicalWeight = 0.6
	}
	if o.MinScore == 0 {
		o.MinScore = 0.3
	}
	return o
}

// LexicalSimilarity measures surface similarity of two node keys: token
// Jaccard over the stemmed tokens, with exact match scoring 1. Keys like
// "large-scale graph processing" and "graph processing at large scale"
// align even though the strings differ.
func LexicalSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	ta, tb := stems(a), stems(b)
	inter := 0
	for _, t := range ta {
		if slices.Contains(tb, t) {
			inter++
		}
	}
	return jaccard(inter, len(ta), len(tb))
}

// stems returns the distinct stemmed tokens of a node key.
func stems(key string) []string {
	toks := textindex.Tokenize(key)
	out := toks[:0]
	for _, t := range toks {
		if st := textindex.Stem(t); !slices.Contains(out, st) {
			out = append(out, st)
		}
	}
	return out
}

// jaccard is |A∩B| / |A∪B| from the intersection and the set sizes; 0
// when either set is empty.
func jaccard(inter, na, nb int) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(inter) / float64(na+nb-inter)
}

// Align computes scored mappings between two layers. Candidates pass a
// lexical prefilter; each candidate's final score mixes lexical
// similarity with the Jaccard overlap of its already-lexically-anchored
// neighborhoods (one round of structural refinement). Greedy one-to-one
// matching keeps the best mapping per node. The result is imprecise by
// design — scores, not booleans.
//
// Each key is tokenised once, and only pairs that share a stemmed token
// or the exact key are scored, found through a stem → B-node postings
// map: with MinLexical positive no other pair can pass the prefilter.
func Align(a, b *Layer, opts Options) []Mapping {
	opts = opts.withDefaults()
	type cand struct {
		a, b string
		lex  float64
	}
	var cands []cand
	// Anchor set: exact-key matches, used for structural scoring.
	anchors := map[string]string{}
	// Nodes visits B in ID order, so every postings list ascends.
	bKeys := make([]string, 0, b.G.NumNodes())
	bStemCount := make([]int, 0, b.G.NumNodes())
	postings := map[string][]graph.NodeID{}
	b.G.Nodes(func(n graph.Node) bool {
		st := stems(n.Key)
		bKeys = append(bKeys, n.Key)
		bStemCount = append(bStemCount, len(st))
		for _, s := range st {
			postings[s] = append(postings[s], n.ID)
		}
		return true
	})
	shared := make([]int32, len(bKeys)) // stems each B node shares with the A key at hand
	var touched []graph.NodeID
	a.G.Nodes(func(n graph.Node) bool {
		ta := stems(n.Key)
		for _, s := range ta {
			for _, j := range postings[s] {
				if shared[j] == 0 {
					touched = append(touched, j)
				}
				shared[j]++
			}
		}
		if j := b.G.Lookup(n.Key); j != graph.Invalid && shared[j] == 0 {
			touched = append(touched, j) // an exact key with no tokens
		}
		// Visit the candidates in B's node order, so the last exact
		// anchor wins as in a scan of every pair.
		slices.Sort(touched)
		for _, j := range touched {
			lex := 1.0
			if bKeys[j] != n.Key {
				lex = jaccard(int(shared[j]), len(ta), bStemCount[j])
			}
			shared[j] = 0
			if lex >= opts.MinLexical {
				cands = append(cands, cand{n.Key, bKeys[j], lex})
				if lex == 1 {
					anchors[n.Key] = bKeys[j]
				}
			}
		}
		touched = touched[:0]
		return true
	})

	neighborsOf := func(l *Layer, key string) map[string]bool {
		out := map[string]bool{}
		id := l.G.Lookup(key)
		for _, nb := range l.G.Neighbors(id) {
			n, err := l.G.Node(nb)
			if err == nil {
				out[n.Key] = true
			}
		}
		return out
	}

	var mappings []Mapping
	for _, c := range cands {
		na := neighborsOf(a, c.a)
		nb := neighborsOf(b, c.b)
		// Structural similarity: fraction of a-neighbors whose anchor
		// lands in b's neighborhood.
		inter, denom := 0, 0
		for ak := range na {
			bk, ok := anchors[ak]
			if !ok {
				continue
			}
			denom++
			if nb[bk] {
				inter++
			}
		}
		structural := 0.0
		if denom > 0 {
			structural = float64(inter) / float64(denom)
		}
		score := opts.LexicalWeight*c.lex + (1-opts.LexicalWeight)*structural
		if score >= opts.MinScore {
			mappings = append(mappings, Mapping{A: c.a, B: c.b, Score: score})
		}
	}
	// Greedy one-to-one: best score first.
	sort.Slice(mappings, func(i, j int) bool {
		if mappings[i].Score != mappings[j].Score {
			return mappings[i].Score > mappings[j].Score
		}
		if mappings[i].A != mappings[j].A {
			return mappings[i].A < mappings[j].A
		}
		return mappings[i].B < mappings[j].B
	})
	usedA, usedB := map[string]bool{}, map[string]bool{}
	var out []Mapping
	for _, m := range mappings {
		if usedA[m.A] || usedB[m.B] {
			continue
		}
		usedA[m.A] = true
		usedB[m.B] = true
		out = append(out, m)
	}
	return out
}

// Integrated is the merged multi-layer context network.
type Integrated struct {
	// G is the merged graph. Node keys are canonical keys; edges carry
	// the label "layer/<name>/<original label>" per source layer plus a
	// combined "integrated" edge whose weight is the noisy-OR of the
	// trust-scaled layer weights.
	G *graph.Graph
	// Canonical maps "<layer>/<key>" to the canonical node key.
	Canonical map[string]string
}

// EdgeIntegrated is the label of combined edges.
const EdgeIntegrated = "integrated"

// Integrate merges layers into one context network. Cross-layer node
// identity comes from aligning every later layer against the first
// (reference) layer with the given options; unaligned nodes keep their
// own key. Edge weights are first normalized per layer to (0, 1] by the
// layer's maximum weight, scaled by trust, then combined across layers by
// noisy-OR — two layers asserting the same relationship reinforce it,
// while a relationship seen in only one (possibly conflicting) layer
// stays weaker.
func Integrate(layers []*Layer, opts Options) (*Integrated, error) {
	if len(layers) == 0 {
		return nil, ErrNoLayers
	}
	canonical := map[string]string{}
	ref := layers[0]
	ref.G.Nodes(func(n graph.Node) bool {
		canonical[ref.Name+"/"+n.Key] = n.Key
		return true
	})
	for _, l := range layers[1:] {
		maps := Align(l, ref, opts)
		mapped := map[string]string{}
		for _, m := range maps {
			mapped[m.A] = m.B
		}
		l.G.Nodes(func(n graph.Node) bool {
			if ck, ok := mapped[n.Key]; ok {
				canonical[l.Name+"/"+n.Key] = ck
			} else {
				canonical[l.Name+"/"+n.Key] = n.Key
			}
			return true
		})
	}

	out := graph.NewBuilder()
	// Materialize nodes.
	for _, l := range layers {
		l.G.Nodes(func(n graph.Node) bool {
			out.EnsureNode(canonical[l.Name+"/"+n.Key], n.Label)
			return true
		})
	}
	// Per-layer edges plus noisy-OR accumulation.
	type pair struct{ from, to graph.NodeID }
	combined := map[pair]float64{} // 1 - prod(1 - w_i)
	for _, l := range layers {
		maxW := 0.0
		l.G.Nodes(func(n graph.Node) bool {
			for _, e := range l.G.Out(n.ID) {
				if e.Weight > maxW {
					maxW = e.Weight
				}
			}
			return true
		})
		if maxW == 0 {
			continue
		}
		// Resolve each layer node and each arc label once, not per arc.
		ids := make([]graph.NodeID, l.G.NumNodes())
		l.G.Nodes(func(n graph.Node) bool {
			ids[n.ID] = out.Lookup(canonical[l.Name+"/"+n.Key])
			return true
		})
		names := map[graph.LabelID]string{}
		for i, from := range ids {
			for _, e := range l.G.Out(graph.NodeID(i)) {
				to := ids[e.Node]
				if from == to {
					continue
				}
				name, ok := names[e.Label]
				if !ok {
					name = "layer/" + l.Name + "/" + l.G.Label(e.Label)
					names[e.Label] = name
				}
				w := (e.Weight / maxW) * l.trust()
				_ = out.AddEdge(from, to, name, w)
				p := pair{from, to}
				prev := combined[p]
				combined[p] = 1 - (1-prev)*(1-w)
			}
		}
	}
	// Insert in (from, to) order: out-edge lists, and every sum over them
	// downstream, must not depend on map iteration order.
	pairs := make([]pair, 0, len(combined))
	for p := range combined {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		if c := cmp.Compare(x.from, y.from); c != 0 {
			return c
		}
		return cmp.Compare(x.to, y.to)
	})
	for _, p := range pairs {
		_ = out.AddEdge(p.from, p.to, EdgeIntegrated, combined[p])
	}
	return &Integrated{G: out.Freeze(), Canonical: canonical}, nil
}

// Resolve maps a layer-local key to its canonical key in the integrated
// network ("" when unknown).
func (in *Integrated) Resolve(layer, key string) string {
	return in.Canonical[layer+"/"+key]
}

// Agreement quantifies cross-layer reinforcement vs conflict for two
// layers inside an integrated network: Reinforced counts canonical edges
// asserted by both layers; Conflicting counts edges asserted by exactly
// one layer although both endpoints exist in both layers (the layers
// disagree about the relationship).
type Agreement struct {
	Reinforced  int
	Conflicting int
}

// Agree computes the Agreement between two named layers of the
// integration.
func (in *Integrated) Agree(layers []*Layer, aName, bName string) Agreement {
	var la, lb *Layer
	for _, l := range layers {
		switch l.Name {
		case aName:
			la = l
		case bName:
			lb = l
		}
	}
	if la == nil || lb == nil {
		return Agreement{}
	}
	edgesOf := func(l *Layer) map[string]bool {
		set := map[string]bool{}
		l.G.Nodes(func(n graph.Node) bool {
			from := in.Resolve(l.Name, n.Key)
			for _, e := range l.G.Out(n.ID) {
				toNode, err := l.G.Node(e.Node)
				if err != nil {
					continue
				}
				set[from+"\x00"+in.Resolve(l.Name, toNode.Key)] = true
			}
			return true
		})
		return set
	}
	nodesOf := func(l *Layer) map[string]bool {
		set := map[string]bool{}
		l.G.Nodes(func(n graph.Node) bool {
			set[in.Resolve(l.Name, n.Key)] = true
			return true
		})
		return set
	}
	ea, eb := edgesOf(la), edgesOf(lb)
	na, nb := nodesOf(la), nodesOf(lb)
	var ag Agreement
	for e := range ea {
		if eb[e] {
			ag.Reinforced++
			continue
		}
		parts := strings.SplitN(e, "\x00", 2)
		if len(parts) == 2 && nb[parts[0]] && nb[parts[1]] {
			ag.Conflicting++
		}
	}
	for e := range eb {
		if ea[e] {
			continue // already counted as reinforced
		}
		parts := strings.SplitN(e, "\x00", 2)
		if len(parts) == 2 && na[parts[0]] && na[parts[1]] {
			ag.Conflicting++
		}
	}
	return ag
}

// String describes the integration for logs.
func (in *Integrated) String() string {
	return fmt.Sprintf("integrated(%d nodes, %d edges)", in.G.NumNodes(), in.G.NumEdges())
}

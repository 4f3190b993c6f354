// Package rdf implements R2DB, the weighted RDF data management system
// Hive relies on for its knowledge layers (paper §2.2, refs [11][12]).
// Triples carry a weight in (0, 1] expressing the strength or certainty of
// the statement — the "imprecise alignment" results of §2.2 are stored
// exactly this way. A Builder collects the triples and freezes them once
// into a KB: a sorted term dictionary and one offsets array per direction
// over flat int32-indexed arc records, which answers R2DF-style top-k
// ranked path queries where a path's score is the product of its triple
// weights.
package rdf

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// ErrBadTriple is returned for malformed triples.
var ErrBadTriple = errors.New("rdf: malformed triple")

// Triple is a weighted RDF statement.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
	// Weight in (0, 1]; 1 means a certain statement.
	Weight float64
}

// Builder collects weighted triples for a KB. Not safe for concurrent
// use.
type Builder struct {
	triples []Triple
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Add records a triple. Weights of repeated assertions keep the maximum
// (observing the same fact again cannot weaken it). Weights are clamped
// to (0, 1]; non-positive weights are rejected.
func (b *Builder) Add(t Triple) error {
	if t.Subject == "" || t.Predicate == "" || t.Object == "" {
		return fmt.Errorf("%w: empty field in %+v", ErrBadTriple, t)
	}
	if t.Weight <= 0 {
		return fmt.Errorf("%w: non-positive weight %v", ErrBadTriple, t.Weight)
	}
	t.Weight = min(t.Weight, 1)
	b.triples = append(b.triples, t)
	return nil
}

// KB is a frozen weighted triple store. Subjects and objects share one
// dictionary of terms in ascending order, so term IDs order like the
// terms; predicates likewise. Node i's triples as subject are
// out[outOff[i]:outOff[i+1]] and as object in[inOff[i]:inOff[i+1]], each
// run sorted by descending weight, then by the other end and predicate.
// A KB is immutable and safe for concurrent readers.
type KB struct {
	terms   string  // every term, ascending, concatenated
	termEnd []int32 // term i is terms[termEnd[i-1]:termEnd[i]]
	preds   []string
	outOff  []int32
	out     []arc // by subject: object, predicate, weight
	inOff   []int32
	in      []arc // by object: subject, predicate, weight
}

// arc is one triple seen from one of its ends.
type arc struct {
	node, pred int32
	weight     float64
}

// Freeze lays the recorded triples out as a KB. The builder stays usable
// and later additions do not reach the returned KB.
func (b *Builder) Freeze() *KB {
	var terms, preds []string
	for _, t := range b.triples {
		terms = append(terms, t.Subject, t.Object)
		preds = append(preds, t.Predicate)
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)
	slices.Sort(preds)
	kb := &KB{
		terms:   strings.Join(terms, ""),
		termEnd: make([]int32, len(terms)),
		preds:   slices.Clip(slices.Compact(preds)),
		outOff:  make([]int32, len(terms)+1),
		inOff:   make([]int32, len(terms)+1),
	}
	termID := make(map[string]int32, len(terms))
	end := 0
	for i, t := range terms {
		end += len(t)
		kb.termEnd[i] = int32(end)
		termID[t] = int32(i)
	}
	predID := make(map[string]int32, len(kb.preds))
	for i, p := range kb.preds {
		predID[p] = int32(i)
	}

	// One record per distinct (s, p, o), keeping the maximum weight.
	type spo struct {
		s, p, o int32
		w       float64
	}
	all := make([]spo, len(b.triples))
	for i, t := range b.triples {
		all[i] = spo{termID[t.Subject], predID[t.Predicate], termID[t.Object], t.Weight}
	}
	slices.SortFunc(all, func(x, y spo) int {
		if c := cmp.Compare(x.s, y.s); c != 0 {
			return c
		}
		if c := cmp.Compare(x.p, y.p); c != 0 {
			return c
		}
		if c := cmp.Compare(x.o, y.o); c != 0 {
			return c
		}
		return cmp.Compare(y.w, x.w)
	})
	all = slices.CompactFunc(all, func(x, y spo) bool { return x.s == y.s && x.p == y.p && x.o == y.o })

	kb.out = make([]arc, len(all))
	kb.in = make([]arc, len(all))
	for _, t := range all {
		kb.outOff[t.s+1]++
		kb.inOff[t.o+1]++
	}
	for i := range terms {
		kb.outOff[i+1] += kb.outOff[i]
		kb.inOff[i+1] += kb.inOff[i]
	}
	outAt := slices.Clone(kb.outOff)
	inAt := slices.Clone(kb.inOff)
	for _, t := range all {
		kb.out[outAt[t.s]] = arc{t.o, t.p, t.w}
		outAt[t.s]++
		kb.in[inAt[t.o]] = arc{t.s, t.p, t.w}
		inAt[t.o]++
	}
	// Within one node, heavier first, then by the other end's term and
	// the predicate's — the order ranked path search expands in.
	byWeight := func(x, y arc) int {
		if c := cmp.Compare(y.weight, x.weight); c != 0 {
			return c
		}
		if c := cmp.Compare(x.node, y.node); c != 0 {
			return c
		}
		return cmp.Compare(x.pred, y.pred)
	}
	for i := range terms {
		slices.SortFunc(kb.in[kb.inOff[i]:kb.inOff[i+1]], byWeight)
		slices.SortFunc(kb.out[kb.outOff[i]:kb.outOff[i+1]], func(x, y arc) int {
			if c := cmp.Compare(y.weight, x.weight); c != 0 {
				return c
			}
			if c := cmp.Compare(x.pred, y.pred); c != 0 {
				return c
			}
			return cmp.Compare(x.node, y.node)
		})
	}
	return kb
}

// Len reports the number of stored triples.
func (kb *KB) Len() int { return len(kb.out) }

// Weight returns the weight of a triple and whether it exists.
func (kb *KB) Weight(s, p, o string) (float64, bool) {
	si, oi := kb.lookup(s), kb.lookup(o)
	pi, ok := slices.BinarySearch(kb.preds, p)
	if si < 0 || oi < 0 || !ok {
		return 0, false
	}
	for _, a := range kb.outOf(si) {
		if a.node == oi && a.pred == int32(pi) {
			return a.weight, true
		}
	}
	return 0, false
}

// Bytes reports the size of the KB's arrays, dictionary included.
func (kb *KB) Bytes() int {
	n := len(kb.terms) + 4*(len(kb.termEnd)+len(kb.outOff)+len(kb.inOff)) +
		int(unsafe.Sizeof(arc{}))*(len(kb.out)+len(kb.in))
	for _, p := range kb.preds {
		n += int(unsafe.Sizeof(p)) + len(p)
	}
	return n
}

// term returns the text of term i.
func (kb *KB) term(i int32) string {
	start := int32(0)
	if i > 0 {
		start = kb.termEnd[i-1]
	}
	return kb.terms[start:kb.termEnd[i]]
}

// lookup returns the ID of a term, or -1.
func (kb *KB) lookup(term string) int32 {
	i := sort.Search(len(kb.termEnd), func(i int) bool { return kb.term(int32(i)) >= term })
	if i < len(kb.termEnd) && kb.term(int32(i)) == term {
		return int32(i)
	}
	return -1
}

func (kb *KB) outOf(i int32) []arc { return kb.out[kb.outOff[i]:kb.outOff[i+1]] }
func (kb *KB) inOf(i int32) []arc  { return kb.in[kb.inOff[i]:kb.inOff[i+1]] }

// triple materializes the arc a stored at node, traversed forward (node
// is the subject) or backward (node is the object). The strings are
// slices of the dictionary: nothing is allocated.
func (kb *KB) triple(node int32, a arc, forward bool) Triple {
	s, o := node, a.node
	if !forward {
		s, o = o, s
	}
	return Triple{kb.term(s), kb.preds[a.pred], kb.term(o), a.weight}
}

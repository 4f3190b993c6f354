package textindex

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// Dict is a sorted term dictionary: every term once, ascending, in one
// string with end offsets, so term IDs order like the terms (the layout
// of rdf.KB's dictionary). A snapshot keeps one and lays every text
// vector it holds out as a CompiledVector over it. The dictionary also
// records where each term's postings run lies in one frozen base
// segment, so a compiled query reaches its postings from the term ID.
type Dict struct {
	terms  string
	end    []int32   // term i is terms[end[i-1]:end[i]]
	base   *Frozen   // the segment post and baseID resolve against; nil for none
	post   []postRef // term ID -> its postings run in base (n = 0: absent)
	baseID []int32   // term ID -> its ID in base's vocabulary, -1 when absent
}

// postRef locates one term's postings run in a Frozen.
type postRef struct{ off, n int32 }

// NewDict builds the dictionary of base's vocabulary and the given
// terms (any order, duplicates allowed), resolving each against base's
// postings. base may be nil: the dictionary of the terms alone.
func NewDict(terms []string, base *Frozen) *Dict {
	sorted := slices.Clone(terms)
	if base != nil {
		for t := range base.terms {
			sorted = append(sorted, t)
		}
	}
	slices.Sort(sorted)
	return newDict(slices.Compact(sorted), base)
}

// newDict builds the dictionary of sorted, distinct terms.
func newDict(sorted []string, base *Frozen) *Dict {
	d := &Dict{terms: strings.Join(sorted, ""), end: make([]int32, len(sorted)), base: base}
	n := 0
	for i, t := range sorted {
		n += len(t)
		d.end[i] = int32(n)
	}
	if base != nil {
		d.post = make([]postRef, len(sorted))
		d.baseID = make([]int32, len(sorted))
		for i, t := range sorted {
			if ti, ok := base.terms[t]; ok {
				d.post[i] = postRef{ti.off, ti.n}
			}
			d.baseID[i] = -1
			if id, ok := base.vocab.lookup(t); ok {
				d.baseID[i] = id
			}
		}
	}
	return d
}

// Len reports the number of terms.
func (d *Dict) Len() int { return len(d.end) }

// term returns the text of term id, a slice of the dictionary.
func (d *Dict) term(id int32) string {
	start := int32(0)
	if id > 0 {
		start = d.end[id-1]
	}
	return d.terms[start:d.end[id]]
}

// lookup returns the ID of a term and whether the dictionary holds it.
func (d *Dict) lookup(t string) (int32, bool) {
	i := sort.Search(len(d.end), func(i int) bool { return d.term(int32(i)) >= t })
	return int32(i), i < len(d.end) && d.term(int32(i)) == t
}

// Bytes reports the size of the dictionary's arrays.
func (d *Dict) Bytes() int {
	return len(d.terms) + 4*(len(d.end)+len(d.baseID)) + int(unsafe.Sizeof(postRef{}))*len(d.post)
}

// postings returns term id's postings run in f: from the dictionary
// when it was resolved against f, else by looking the term up.
func (d *Dict) postings(f *Frozen, id int32) postRef {
	if d.base == f {
		return d.post[id]
	}
	ti := f.terms[d.term(id)]
	return postRef{ti.off, ti.n}
}

// CompiledVector is a text vector laid out flat: a run of (term ID,
// weight) pairs over a Dict, sorted by ID and so by term, with its
// Euclidean norm summed once in that order. Every product of two runs
// walks both in term order, so one pair of runs always scores bit for
// bit the same, whichever map their weights came from.
//
// A run is index-independent: it resolves its IDs to terms through its
// own dictionary, so it scores against any Segmented view, another
// shard's included, and against a run over another dictionary. The
// dictionary's postings references are a fast path for the one base
// segment it was resolved against. A CompiledVector is immutable.
type CompiledVector struct {
	dict *Dict
	ids  []int32   // ascending
	ws   []float64 // parallel to ids
	norm float64
}

// Compile lays v out as a run over d. A vector holding a term d lacks
// gets a dictionary of its own, resolved against d's base, so no term is
// ever dropped.
func (d *Dict) Compile(v Vector) *CompiledVector {
	return &d.CompileAll([]Vector{v})[0]
}

// CompileAll lays the vectors out as runs over d, end to end in one ID
// array and one weight array; the i-th run is vs[i]'s. A vector holding
// a term d lacks gets a dictionary of its own, as in Compile.
func (d *Dict) CompileAll(vs []Vector) []CompiledVector {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	ids, ws := make([]int32, 0, n), make([]float64, 0, n)
	runs := make([]CompiledVector, len(vs))
	type entry struct {
		id int32
		w  float64
	}
	var es []entry
	for i, v := range vs {
		es = es[:0]
		missing := false
		for t, w := range v {
			id, ok := d.lookup(t)
			if missing = !ok; missing {
				break
			}
			es = append(es, entry{id, w})
		}
		if missing {
			runs[i] = *newRun(v, d.base)
			continue
		}
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
		lo := len(ids)
		for _, e := range es {
			ids = append(ids, e.id)
			ws = append(ws, e.w)
		}
		runs[i] = CompiledVector{dict: d, ids: ids[lo:len(ids):len(ids)], ws: ws[lo:len(ws):len(ws)]}
		runs[i].norm = runs[i].sumNorm()
	}
	return runs
}

// newRun lays v out over a dictionary of exactly its terms, resolved
// against base (nil: none).
func newRun(v Vector, base *Frozen) *CompiledVector {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	cq := &CompiledVector{dict: newDict(terms, base), ids: make([]int32, len(terms)), ws: make([]float64, len(terms))}
	for i, t := range terms {
		cq.ids[i], cq.ws[i] = int32(i), v[t]
	}
	cq.norm = cq.sumNorm()
	return cq
}

// VectorRun lays v out as a run over a dictionary of its own terms.
func VectorRun(v Vector) *CompiledVector { return newRun(v, nil) }

// TextRun is the raw term-frequency run of text: TermFrequency(text)
// laid out flat, without building the map.
func TextRun(text string) *CompiledVector {
	terms := Terms(text)
	slices.Sort(terms)
	cq := &CompiledVector{}
	var distinct []string
	for i, t := range terms {
		if i > 0 && t == terms[i-1] {
			cq.ws[len(cq.ws)-1]++
			continue
		}
		cq.ids = append(cq.ids, int32(len(distinct)))
		cq.ws = append(cq.ws, 1)
		distinct = append(distinct, t)
	}
	cq.dict = newDict(distinct, nil)
	cq.norm = cq.sumNorm()
	return cq
}

func (cq *CompiledVector) sumNorm() float64 {
	var s float64
	for _, w := range cq.ws {
		s += w * w
	}
	return math.Sqrt(s)
}

// Len reports the number of terms of the run; 0 for nil.
func (cq *CompiledVector) Len() int {
	if cq == nil {
		return 0
	}
	return len(cq.ids)
}

// Norm returns the run's Euclidean norm; 0 for nil.
func (cq *CompiledVector) Norm() float64 {
	if cq == nil {
		return 0
	}
	return cq.norm
}

// Dict returns the dictionary the run's IDs index.
func (cq *CompiledVector) Dict() *Dict { return cq.dict }

// Bytes reports the size of the run: its header and 12 bytes per pair.
// The dictionary is shared and counted by its owner.
func (cq *CompiledVector) Bytes() int {
	return int(unsafe.Sizeof(*cq)) + 4*len(cq.ids) + 8*len(cq.ws)
}

// term returns the text of the run's i-th pair.
func (cq *CompiledVector) term(i int) string { return cq.dict.term(cq.ids[i]) }

// Vector returns the run as a map vector (a fresh map).
func (cq *CompiledVector) Vector() Vector {
	v := make(Vector, cq.Len())
	for i := 0; i < cq.Len(); i++ {
		v[cq.term(i)] = cq.ws[i]
	}
	return v
}

// dot returns the dot product of two runs, summed in term order. Runs
// over one dictionary merge on IDs; over two, on the terms the IDs name.
// A nil run is the empty vector.
func (cq *CompiledVector) dot(o *CompiledVector) float64 {
	if cq == nil || o == nil {
		return 0
	}
	var dot float64
	if cq.dict != o.dict {
		c := o.cursor()
		for i, w := range cq.ws {
			if ow, ok := c.weight(cq.term(i)); ok {
				dot += w * ow
			}
		}
		return dot
	}
	for i, j := 0, 0; i < len(cq.ids) && j < len(o.ids); {
		switch a, b := cq.ids[i], o.ids[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			dot += cq.ws[i] * o.ws[j]
			i++
			j++
		}
	}
	return dot
}

// Cosine returns the cosine similarity of two runs: what Vector.Cosine
// returns for their map forms, with every sum in term order. Empty and
// nil runs yield 0.
func (cq *CompiledVector) Cosine(o *CompiledVector) float64 {
	if cq.Norm() == 0 || o.Norm() == 0 {
		return 0
	}
	return cq.dot(o) / (cq.norm * o.norm)
}

// baseCursor walks a run against ascending term IDs of the base its
// dictionary was resolved against. A term the base lacks maps to -1, so
// the run's base IDs ascend but for those, which every probe skips.
type baseCursor struct {
	cq *CompiledVector
	i  int
}

func (cq *CompiledVector) baseCursor() baseCursor { return baseCursor{cq: cq} }

// weight advances past the run's terms that sort before base term id
// and returns id's weight, if the run holds it. Successive probes must
// ascend.
func (c *baseCursor) weight(id int32) (float64, bool) {
	ids, baseID := c.cq.ids, c.cq.dict.baseID
	for c.i < len(ids) && baseID[ids[c.i]] < id {
		c.i++
	}
	if c.i < len(ids) && baseID[ids[c.i]] == id {
		return c.cq.ws[c.i], true
	}
	return 0, false
}

// runCursor walks a run in term order against ascending probe terms,
// resolving each of the run's terms once.
type runCursor struct {
	cq *CompiledVector
	i  int
	t  string // the run's i-th term, when i is in range
}

func (cq *CompiledVector) cursor() runCursor {
	c := runCursor{cq: cq}
	if len(cq.ids) > 0 {
		c.t = cq.term(0)
	}
	return c
}

// weight advances past the run's terms that sort before t and returns
// t's weight, if the run holds t. Successive probes must ascend.
func (c *runCursor) weight(t string) (float64, bool) {
	for c.i < len(c.cq.ids) && c.t < t {
		if c.i++; c.i < len(c.cq.ids) {
			c.t = c.cq.term(c.i)
		}
	}
	if c.i < len(c.cq.ids) && c.t == t {
		return c.cq.ws[c.i], true
	}
	return 0, false
}

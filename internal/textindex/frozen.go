package textindex

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hive/internal/topk"
)

// Frozen is a lock-free, read-only snapshot of an Index, laid out for
// the query path: documents are interned to dense int IDs (assigned in
// lexicographic docID order, so dense-ID order doubles as the tie-break
// order), postings live in contiguous slices sorted by document, and
// per-term IDF plus per-document norms and lengths are precomputed. A
// forward index (term+weight runs per document) makes TFIDFVector
// O(terms-in-doc).
//
// Build one per engine snapshot with Index.Freeze after the last Add.
// A Frozen is immutable, so any number of goroutines may query it with
// no synchronization; later mutations of the source Index are not
// reflected.
//
// Score parity: Search, SearchVector and TFIDFVector accumulate floats
// in exactly the same order as the live Index methods (per-term query
// order for BM25, sorted query terms for vectors, sorted per-doc terms
// for norms and forward weights), so frozen and live results are
// bit-identical, including tie-break order.
type Frozen struct {
	ids      []string         // dense ID -> docID, lexicographically sorted
	idOf     map[string]int32 // docID -> dense ID
	text     []string         // dense ID -> raw text
	docLen   []int32          // dense ID -> token count
	docNorm  []float64        // dense ID -> TF-IDF Euclidean norm
	avgLen   float64          // mean document length (1 when degenerate)
	totalLen int              // total token count (overlay views re-derive avgLen)

	terms   map[string]frozenTerm
	postDoc []int32   // postings: dense doc IDs, contiguous per term
	postTF  []int32   // postings: term frequencies, parallel to postDoc
	postW   []float64 // postings: precomputed tf×idf weights, parallel

	vocab   *Dict     // every indexed term, ascending; its IDs name terms in fwdTerm
	fwdOff  []int32   // dense ID -> offset into fwdTerm/fwdW (len = docs+1)
	fwdTerm []int32   // forward index: term IDs in vocab, ascending within each doc
	fwdW    []float64 // forward index: precomputed TF-IDF weights
	fwdTF   []int32   // forward index: raw term frequencies (the overlay
	// read path recomputes weights under merged corpus statistics, which
	// needs the tf the precomputed fwdW already folded in)

	// scratch pools per-query accumulators so steady-state searches
	// allocate only their results. Buffers are reset by zeroing only the
	// touched entries, keeping per-request cost proportional to matched
	// documents rather than corpus size.
	scratch sync.Pool // *frozenScratch
}

// frozenScratch holds one query's dense accumulators. Invariant while
// pooled: scores and seen are all-zero/false and touched is empty.
type frozenScratch struct {
	scores  []float64
	seen    []bool
	touched []int32
}

// getScratch takes a pooled accumulator with at least n slots. Segmented
// views over this base score their overlay documents in slots past the
// base's dense IDs, so a pooled scratch grows to the longest view asking.
func (f *Frozen) getScratch(n int) *frozenScratch {
	s, ok := f.scratch.Get().(*frozenScratch)
	if !ok {
		s = &frozenScratch{}
	}
	if grow := n - len(s.scores); grow > 0 {
		s.scores = append(s.scores, make([]float64, grow)...)
		s.seen = append(s.seen, make([]bool, grow)...)
	}
	return s
}

// add accumulates v into slot d, recording d the first time it is hit.
func (s *frozenScratch) add(d int32, v float64) {
	if !s.seen[d] {
		s.seen[d] = true
		s.touched = append(s.touched, d)
	}
	s.scores[d] += v
}

func (f *Frozen) putScratch(s *frozenScratch) {
	for _, d := range s.touched {
		s.scores[d] = 0
		s.seen[d] = false
	}
	s.touched = s.touched[:0]
	f.scratch.Put(s)
}

// frozenTerm locates one term's postings run and caches its IDF.
type frozenTerm struct {
	off int32
	n   int32
	idf float64
}

// Freeze captures the current index contents into a Frozen searcher.
func (ix *Index) Freeze() *Frozen {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	nDocs := len(ix.docLen)
	f := &Frozen{
		ids:     make([]string, 0, nDocs),
		idOf:    make(map[string]int32, nDocs),
		text:    make([]string, nDocs),
		docLen:  make([]int32, nDocs),
		docNorm: make([]float64, nDocs),
		terms:   make(map[string]frozenTerm, len(ix.postings)),
		fwdOff:  make([]int32, nDocs+1),
	}
	for id := range ix.docLen {
		f.ids = append(f.ids, id)
	}
	sort.Strings(f.ids)
	for d, id := range f.ids {
		f.idOf[id] = int32(d)
		f.text[d] = ix.docText[id]
		f.docLen[d] = int32(ix.docLen[id])
	}
	f.totalLen = ix.totalLen
	f.avgLen = 1
	if nDocs > 0 {
		f.avgLen = float64(ix.totalLen) / float64(nDocs)
		if f.avgLen == 0 {
			f.avgLen = 1
		}
	}

	// Postings: one contiguous run per term, sorted by dense doc ID.
	// Term layout order is sorted too, purely for reproducible builds.
	termList := make([]string, 0, len(ix.postings))
	totalPostings := 0
	for t, ps := range ix.postings {
		termList = append(termList, t)
		totalPostings += len(ps)
	}
	sort.Strings(termList)
	f.vocab = newDict(termList, nil)
	termID := make(map[string]int32, len(termList))
	for i, t := range termList {
		termID[t] = int32(i)
	}
	f.postDoc = make([]int32, 0, totalPostings)
	f.postTF = make([]int32, 0, totalPostings)
	f.postW = make([]float64, 0, totalPostings)
	type dp struct {
		doc int32
		tf  int32
	}
	for _, t := range termList {
		ps := ix.postings[t]
		run := make([]dp, len(ps))
		for i, p := range ps {
			run[i] = dp{doc: f.idOf[p.doc], tf: int32(p.tf)}
		}
		sort.Slice(run, func(i, j int) bool { return run[i].doc < run[j].doc })
		idf := ix.idfLocked(t)
		f.terms[t] = frozenTerm{off: int32(len(f.postDoc)), n: int32(len(run)), idf: idf}
		for _, r := range run {
			f.postDoc = append(f.postDoc, r.doc)
			f.postTF = append(f.postTF, r.tf)
			f.postW = append(f.postW, float64(r.tf)*idf)
		}
	}

	// Forward index and norms, in the live index's sorted per-doc term
	// order so the weight and norm accumulation matches bit for bit.
	// Terms are named by their vocab IDs, which order like the terms.
	nFwd := 0
	for _, dts := range ix.docTerms {
		nFwd += len(dts)
	}
	f.fwdTerm = make([]int32, 0, nFwd)
	f.fwdW = make([]float64, 0, nFwd)
	f.fwdTF = make([]int32, 0, nFwd)
	for d, id := range f.ids {
		f.fwdOff[d] = int32(len(f.fwdTerm))
		var s float64
		for _, dt := range ix.docTerms[id] {
			w := float64(dt.tf) * ix.idfLocked(dt.term)
			f.fwdTerm = append(f.fwdTerm, termID[dt.term])
			f.fwdW = append(f.fwdW, w)
			f.fwdTF = append(f.fwdTF, int32(dt.tf))
			s += w * w
		}
		f.docNorm[d] = math.Sqrt(s)
	}
	f.fwdOff[nDocs] = int32(len(f.fwdTerm))
	return f
}

// fwdTermAt returns the term of forward entry j.
func (f *Frozen) fwdTermAt(j int32) string { return f.vocab.term(f.fwdTerm[j]) }

// Len reports the number of frozen documents.
func (f *Frozen) Len() int { return len(f.ids) }

// DocIDs returns all document IDs in sorted order. The returned slice is
// owned by the Frozen and must not be modified.
func (f *Frozen) DocIDs() []string { return f.ids }

// Text returns the stored raw text of a document.
func (f *Frozen) Text(docID string) (string, error) {
	d, ok := f.idOf[docID]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrDocNotFound, docID)
	}
	return f.text[d], nil
}

// TFIDFVector returns the document's TF-IDF vector from the forward
// index: O(terms-in-doc), no postings scan.
func (f *Frozen) TFIDFVector(docID string) (Vector, error) {
	d, ok := f.idOf[docID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDocNotFound, docID)
	}
	lo, hi := f.fwdOff[d], f.fwdOff[d+1]
	v := make(Vector, hi-lo)
	for j := lo; j < hi; j++ {
		v[f.fwdTermAt(j)] = f.fwdW[j]
	}
	return v, nil
}

// DocNorm returns the precomputed TF-IDF norm of a document (0 for
// unknown documents).
func (f *Frozen) DocNorm(docID string) float64 {
	d, ok := f.idOf[docID]
	if !ok {
		return 0
	}
	return f.docNorm[d]
}

// Search ranks documents against the query with BM25, identically to
// Index.Search on the frozen contents.
func (f *Frozen) Search(query string, k int) []Result {
	n := len(f.ids)
	if n == 0 {
		return nil
	}
	sc := f.getScratch(len(f.ids))
	defer f.putScratch(sc)
	scores := sc.scores
	for _, term := range Terms(query) {
		ti, ok := f.terms[term]
		if !ok {
			continue
		}
		for j := ti.off; j < ti.off+ti.n; j++ {
			d := f.postDoc[j]
			tf := float64(f.postTF[j])
			// BM25 contributions are strictly positive, so a zero score
			// marks a document not yet touched.
			if scores[d] == 0 {
				sc.touched = append(sc.touched, d)
			}
			scores[d] += ti.idf * tf * (bm25K1 + 1) /
				(tf + bm25K1*(1-bm25B+bm25B*float64(f.docLen[d])/f.avgLen))
		}
	}
	return f.topDense(scores, sc.touched, k)
}

// SearchVector ranks documents by cosine similarity to the query vector,
// identically to Index.SearchVector on the frozen contents. Callers that
// reuse the same query vector (per-user context vectors) should Compile
// it once and search the compiled form instead.
func (f *Frozen) SearchVector(query Vector, k int) []Result {
	if len(query) == 0 {
		return nil
	}
	return f.searchCompiled(f.Compile(query), k)
}

// Compile lays a query vector out as a run over a dictionary of its own
// terms, resolved against f: terms sorted and looked up once, norm
// precomputed, so searching it skips the per-call term sort and hash
// lookups. The postings references are only valid for this Frozen; the
// run itself serves any Segmented view.
func (f *Frozen) Compile(query Vector) *CompiledVector { return newRun(query, f) }

// SearchCompiled ranks documents against a compiled query (Compile or
// Dict.Compile), identically to SearchVector on the original vector:
// the query's terms accumulate in term order.
func (f *Frozen) SearchCompiled(cq *CompiledVector, k int) []Result {
	return f.searchCompiled(cq, k)
}

func (f *Frozen) searchCompiled(cq *CompiledVector, k int) []Result {
	if cq.norm == 0 || len(f.ids) == 0 {
		return nil
	}
	sc := f.getScratch(len(f.ids))
	defer f.putScratch(sc)
	dots, seen := sc.scores, sc.seen
	for i, id := range cq.ids {
		qw, run := cq.ws[i], cq.dict.postings(f, id)
		for j := run.off; j < run.off+run.n; j++ {
			d := f.postDoc[j]
			if !seen[d] {
				seen[d] = true
				sc.touched = append(sc.touched, d)
			}
			dots[d] += qw * f.postW[j]
		}
	}
	h := newDenseTop(k)
	for _, d := range sc.touched {
		dn := f.docNorm[d]
		if dn == 0 {
			continue
		}
		h.Push(denseCand{d: d, s: dots[d] / (cq.norm * dn)})
	}
	return f.denseResults(h)
}

// denseCand is a scored dense doc ID. Dense IDs are assigned in
// lexicographic docID order, so comparing IDs reproduces the live
// index's DocID tie-break.
type denseCand struct {
	d int32
	s float64
}

func newDenseTop(k int) *topk.Heap[denseCand] {
	return topk.New[denseCand](k, func(a, b denseCand) bool {
		if a.s != b.s {
			return a.s > b.s
		}
		return a.d < b.d
	})
}

// topDense selects the top-k touched documents with a bounded heap.
func (f *Frozen) topDense(scores []float64, touched []int32, k int) []Result {
	h := newDenseTop(k)
	for _, d := range touched {
		h.Push(denseCand{d: d, s: scores[d]})
	}
	return f.denseResults(h)
}

func (f *Frozen) denseResults(h *topk.Heap[denseCand]) []Result {
	best := h.Sorted()
	res := make([]Result, len(best))
	for i, c := range best {
		res[i] = Result{DocID: f.ids[c.d], Score: c.s}
	}
	return res
}

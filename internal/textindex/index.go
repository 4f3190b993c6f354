package textindex

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"hive/internal/topk"
)

// ErrDocNotFound is returned when a document ID is unknown to the index.
var ErrDocNotFound = errors.New("textindex: document not found")

// posting records one document's occurrences of a term.
type posting struct {
	doc string
	tf  int
}

// docTerm is one entry of a document's forward index: a term the
// document contains and its frequency. Per-doc term lists are kept
// sorted by term so every per-document float accumulation (TF-IDF
// vectors, norms) runs in a deterministic order — which is also what
// lets a Frozen snapshot reproduce the live scores bit for bit.
type docTerm struct {
	term string
	tf   int
}

// Index is an inverted index over documents with TF-IDF vectors and BM25
// scoring. It is safe for concurrent use: adds take the write lock,
// queries the read lock.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting
	docTerms map[string][]docTerm // forward index, sorted by term
	docLen   map[string]int
	docText  map[string]string
	totalLen int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string][]posting),
		docTerms: make(map[string][]docTerm),
		docLen:   make(map[string]int),
		docText:  make(map[string]string),
	}
}

// Add indexes text under the given document ID. Re-adding an existing ID
// replaces the document.
func (ix *Index) Add(docID, text string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[docID]; ok {
		ix.removeLocked(docID)
	}
	terms := Terms(text)
	counts := make(map[string]int)
	for _, t := range terms {
		counts[t]++
	}
	dts := make([]docTerm, 0, len(counts))
	for t, c := range counts {
		dts = append(dts, docTerm{term: t, tf: c})
	}
	sort.Slice(dts, func(i, j int) bool { return dts[i].term < dts[j].term })
	for _, dt := range dts {
		ix.postings[dt.term] = append(ix.postings[dt.term], posting{doc: docID, tf: dt.tf})
	}
	ix.docTerms[docID] = dts
	ix.docLen[docID] = len(terms)
	ix.docText[docID] = text
	ix.totalLen += len(terms)
}

// Remove deletes a document from the index.
func (ix *Index) Remove(docID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(docID)
}

func (ix *Index) removeLocked(docID string) {
	n, ok := ix.docLen[docID]
	if !ok {
		return
	}
	// The forward index names exactly the postings lists that mention the
	// document, so removal is O(terms-in-doc × list length) rather than a
	// scan of the entire postings map.
	for _, dt := range ix.docTerms[docID] {
		ps := ix.postings[dt.term]
		for i := range ps {
			if ps[i].doc == docID {
				ix.postings[dt.term] = append(ps[:i], ps[i+1:]...)
				break
			}
		}
		if len(ix.postings[dt.term]) == 0 {
			delete(ix.postings, dt.term)
		}
	}
	delete(ix.docTerms, docID)
	ix.totalLen -= n
	delete(ix.docLen, docID)
	delete(ix.docText, docID)
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docLen)
}

// Text returns the stored raw text of a document.
func (ix *Index) Text(docID string) (string, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	t, ok := ix.docText[docID]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrDocNotFound, docID)
	}
	return t, nil
}

// DocIDs returns all indexed document IDs in sorted order.
func (ix *Index) DocIDs() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := make([]string, 0, len(ix.docLen))
	for id := range ix.docLen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// idfFor computes smoothed inverse document frequency from a document
// frequency and a corpus size. Every read representation (live, frozen,
// segmented) funnels through this one expression so their floating-
// point results are bit-identical for the same logical corpus.
func idfFor(df, n int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// idfLocked computes smoothed inverse document frequency for a term.
func (ix *Index) idfLocked(term string) float64 {
	return idfFor(len(ix.postings[term]), len(ix.docLen))
}

// TFIDFVector returns the document's TF-IDF vector.
func (ix *Index) TFIDFVector(docID string) (Vector, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	dts, ok := ix.docTerms[docID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDocNotFound, docID)
	}
	v := make(Vector, len(dts))
	for _, dt := range dts {
		v[dt.term] = float64(dt.tf) * ix.idfLocked(dt.term)
	}
	return v, nil
}

// Result is a scored document.
type Result struct {
	DocID string
	Score float64
}

// BM25 parameters (standard values).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search ranks documents against the query with BM25 and returns the top
// k results (fewer if the index is small or the query matches nothing).
func (ix *Index) Search(query string, k int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docLen) == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(len(ix.docLen))
	if avgLen == 0 {
		avgLen = 1
	}
	scores := make(map[string]float64)
	for _, term := range Terms(query) {
		ps, ok := ix.postings[term]
		if !ok {
			continue
		}
		idf := ix.idfLocked(term)
		for _, p := range ps {
			dl := float64(ix.docLen[p.doc])
			tf := float64(p.tf)
			scores[p.doc] += idf * tf * (bm25K1 + 1) /
				(tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		}
	}
	return topResults(scores, k)
}

// SearchVector ranks documents by cosine similarity between the query
// vector and each document's TF-IDF vector. Hive uses this form when the
// "query" is a context vector (active workpad contents) rather than typed
// keywords. Query terms are processed in sorted order so repeated calls
// (and a Frozen snapshot of this index) accumulate floats identically.
func (ix *Index) SearchVector(query Vector, k int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(query) == 0 {
		return nil
	}
	terms := make([]string, 0, len(query))
	for t := range query {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	// Accumulate dot products via postings of the query terms only.
	dots := make(map[string]float64)
	var qnSq float64
	for _, t := range terms {
		qw := query[t]
		qnSq += qw * qw
		ps, ok := ix.postings[t]
		if !ok {
			continue
		}
		idf := ix.idfLocked(t)
		for _, p := range ps {
			// Associated as qw × (tf × idf): the tf×idf factor is what a
			// Frozen snapshot precomputes per posting, so grouping it
			// keeps live and frozen sums bit-identical.
			dots[p.doc] += qw * (float64(p.tf) * idf)
		}
	}
	if qnSq == 0 {
		return nil
	}
	qn := math.Sqrt(qnSq)
	scores := make(map[string]float64, len(dots))
	for doc, dot := range dots {
		dn := ix.docNormLocked(doc)
		if dn == 0 {
			continue
		}
		scores[doc] = dot / (qn * dn)
	}
	return topResults(scores, k)
}

// docNormLocked computes the Euclidean norm of a document's TF-IDF
// vector from its forward-index entry: O(terms-in-doc).
func (ix *Index) docNormLocked(docID string) float64 {
	var s float64
	for _, dt := range ix.docTerms[docID] {
		w := float64(dt.tf) * ix.idfLocked(dt.term)
		s += w * w
	}
	return math.Sqrt(s)
}

// resultBetter is the ranking order of every read representation:
// higher score first, ties toward the lower document ID.
func resultBetter(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

func topResults(scores map[string]float64, k int) []Result {
	h := topk.New[Result](k, resultBetter)
	for d, s := range scores {
		h.Push(Result{DocID: d, Score: s})
	}
	return h.Sorted()
}

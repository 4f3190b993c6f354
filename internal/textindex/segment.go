package textindex

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hive/internal/topk"
)

// Segmented is an immutable LSM-style read view over a text corpus: the
// frozen base segment from the last full build plus a small overlay
// segment of documents added or updated since, merged on read. Overlay
// documents shadow their base versions (the shadowed base doc joins the
// tombstone set), so the view answers queries over exactly the live
// logical corpus.
//
// Score parity: every query recomputes IDF, average document length and
// document norms from the merged statistics using the same expressions
// and the same float accumulation order as the live Index (and hence as
// a from-scratch Frozen of the same corpus), so segmented results are
// bit-identical to a full rebuild — including tie-break order. When the
// overlay is empty the view delegates to the base's precomputed fast
// paths, so a freshly compacted snapshot costs nothing extra.
//
// Scoring is dense, the way Frozen scores: base documents accumulate in
// the pooled frozenScratch under their int32 dense IDs, and each overlay
// document under an ordinal assigned when WithDocs inserts it, past the
// base's IDs. Overlay postings carry that ordinal and the document
// length, so no query-time loop hashes a document ID.
//
// A Segmented is immutable; WithDocs/WithoutDocs return a new view
// sharing the base (and all untouched overlay state) structurally. The
// per-apply cost is proportional to the overlay size, which compaction
// keeps bounded — never to the base corpus.
type Segmented struct {
	base *Frozen

	over     map[string]int32            // overlay doc ID -> ordinal
	overDoc  []*overlayDoc               // ordinal -> overlay doc (nil once dropped)
	overPost map[string][]overlayPosting // term -> overlay postings
	dead     map[int32]struct{}          // dense base IDs shadowed or deleted
	deadDF   map[string]int              // per-term base postings lost to dead docs

	nDocs    int // live documents across base and overlay
	totalLen int // live token count across base and overlay
}

// overlayDoc is one overlay document in forward form.
type overlayDoc struct {
	id     string
	terms  []docTerm // sorted by term, like the live index's forward entry
	length int
	text   string
}

// overlayPosting is one overlay document's occurrence of a term, with
// what BM25 reads of the document: its ordinal and its length.
type overlayPosting struct {
	ord    int32
	length int32
	tf     int32
}

// NewSegmented wraps a frozen base segment in an empty overlay view.
func NewSegmented(base *Frozen) *Segmented {
	return &Segmented{
		base:     base,
		nDocs:    base.Len(),
		totalLen: base.totalLen,
	}
}

// pristine reports whether the view is exactly the base segment, in
// which case every read delegates to the base's precomputed fast path.
func (s *Segmented) pristine() bool { return len(s.over) == 0 && len(s.dead) == 0 }

// Base returns the frozen base segment.
func (s *Segmented) Base() *Frozen { return s.base }

// OverlayDocs reports the number of overlay documents.
func (s *Segmented) OverlayDocs() int { return len(s.over) }

// Tombstones reports the number of dead base documents (shadowed by
// overlay versions or deleted).
func (s *Segmented) Tombstones() int { return len(s.dead) }

// TombstoneRatio reports the fraction of the base segment that is dead
// — merge-on-read work that a compaction would reclaim.
func (s *Segmented) TombstoneRatio() float64 {
	if s.base.Len() == 0 {
		return 0
	}
	return float64(len(s.dead)) / float64(s.base.Len())
}

// clone copies the overlay bookkeeping into a fresh view sharing the
// base. Slices inside overPost are copied lazily by the mutating ops.
func (s *Segmented) clone() *Segmented {
	n := &Segmented{
		base:     s.base,
		over:     make(map[string]int32, len(s.over)+1),
		overDoc:  slices.Clone(s.overDoc),
		overPost: make(map[string][]overlayPosting, len(s.overPost)),
		dead:     make(map[int32]struct{}, len(s.dead)+1),
		deadDF:   make(map[string]int, len(s.deadDF)),
		nDocs:    s.nDocs,
		totalLen: s.totalLen,
	}
	for id, ord := range s.over {
		n.over[id] = ord
	}
	for t, ps := range s.overPost {
		n.overPost[t] = ps // copied on write by addPosting/dropPosting
	}
	for d := range s.dead {
		n.dead[d] = struct{}{}
	}
	for t, c := range s.deadDF {
		n.deadDF[t] = c
	}
	return n
}

// WithDocs returns a new view with the given documents added (or
// updated: an existing overlay version is replaced, an existing base
// version is tombstoned and shadowed). Documents apply in sorted-ID
// order for reproducibility; the result set is order-insensitive. A
// replaced overlay document keeps its ordinal, so rewriting one
// document does not grow the accumulators.
func (s *Segmented) WithDocs(docs map[string]string) *Segmented {
	if len(docs) == 0 {
		return s
	}
	n := s.clone()
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ord, had := n.over[id]
		n.removeLive(id)
		if !had {
			ord = int32(len(n.overDoc))
			n.overDoc = append(n.overDoc, nil)
		}
		text := docs[id]
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
		n.over[id] = ord
		n.overDoc[ord] = &overlayDoc{id: id, terms: dts, length: len(terms), text: text}
		for _, dt := range dts {
			n.addPosting(dt.term, overlayPosting{ord: ord, length: int32(len(terms)), tf: int32(dt.tf)})
		}
		n.nDocs++
		n.totalLen += len(terms)
	}
	return n
}

// WithoutDocs returns a new view with the given documents removed:
// overlay versions are dropped, base versions tombstoned. Unknown IDs
// are ignored.
func (s *Segmented) WithoutDocs(ids []string) *Segmented {
	if len(ids) == 0 {
		return s
	}
	n := s.clone()
	for _, id := range ids {
		n.removeLive(id)
	}
	return n
}

// removeLive drops the live version of a document, wherever it resides.
func (s *Segmented) removeLive(id string) {
	if ord, ok := s.over[id]; ok {
		od := s.overDoc[ord]
		delete(s.over, id)
		s.overDoc[ord] = nil
		for _, dt := range od.terms {
			s.dropPosting(dt.term, ord)
		}
		s.nDocs--
		s.totalLen -= od.length
		return
	}
	d, inBase := s.base.idOf[id]
	if !inBase {
		return
	}
	if _, gone := s.dead[d]; gone {
		return
	}
	s.dead[d] = struct{}{}
	for j := s.base.fwdOff[d]; j < s.base.fwdOff[d+1]; j++ {
		s.deadDF[s.base.fwdTermAt(j)]++
	}
	s.nDocs--
	s.totalLen -= int(s.base.docLen[d])
}

// addPosting appends an overlay posting, copying the term's list so the
// parent view's slice is never mutated.
func (s *Segmented) addPosting(term string, p overlayPosting) {
	old := s.overPost[term]
	nl := make([]overlayPosting, len(old), len(old)+1)
	copy(nl, old)
	s.overPost[term] = append(nl, p)
}

// dropPosting removes a document's overlay posting for a term.
func (s *Segmented) dropPosting(term string, ord int32) {
	old := s.overPost[term]
	nl := make([]overlayPosting, 0, len(old))
	for _, p := range old {
		if p.ord != ord {
			nl = append(nl, p)
		}
	}
	if len(nl) == 0 {
		delete(s.overPost, term)
	} else {
		s.overPost[term] = nl
	}
}

// df returns the merged document frequency of a term.
func (s *Segmented) df(term string) int {
	base := 0
	if ti, ok := s.base.terms[term]; ok {
		base = int(ti.n)
	}
	return base - s.deadDF[term] + len(s.overPost[term])
}

// idfOf returns the merged-corpus IDF of a term.
func (s *Segmented) idfOf(term string) float64 { return idfFor(s.df(term), s.nDocs) }

// Len reports the number of live documents.
func (s *Segmented) Len() int { return s.nDocs }

// overlay returns a document's overlay version, nil if it has none.
func (s *Segmented) overlay(docID string) *overlayDoc {
	if ord, ok := s.over[docID]; ok {
		return s.overDoc[ord]
	}
	return nil
}

// baseDoc returns the dense base ID of a document whose live version is
// the base's: ok is false for documents the base lacks or the view has
// tombstoned.
func (s *Segmented) baseDoc(docID string) (d int32, ok bool) {
	d, ok = s.base.idOf[docID]
	if !ok {
		return 0, false
	}
	_, gone := s.dead[d]
	return d, !gone
}

// DocIDs returns all live document IDs in sorted order.
func (s *Segmented) DocIDs() []string {
	if s.pristine() {
		return s.base.DocIDs()
	}
	ids := make([]string, 0, s.nDocs)
	for d, id := range s.base.ids {
		if _, gone := s.dead[int32(d)]; !gone {
			ids = append(ids, id)
		}
	}
	for id := range s.over {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Text returns the stored raw text of a live document.
func (s *Segmented) Text(docID string) (string, error) {
	if od := s.overlay(docID); od != nil {
		return od.text, nil
	}
	d, ok := s.baseDoc(docID)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrDocNotFound, docID)
	}
	return s.base.text[d], nil
}

// TFIDFVector returns the document's TF-IDF vector under merged corpus
// statistics: O(terms-in-doc), identical to a full rebuild's vector.
func (s *Segmented) TFIDFVector(docID string) (Vector, error) {
	if s.pristine() {
		return s.base.TFIDFVector(docID)
	}
	if od := s.overlay(docID); od != nil {
		v := make(Vector, len(od.terms))
		for _, dt := range od.terms {
			v[dt.term] = float64(dt.tf) * s.idfOf(dt.term)
		}
		return v, nil
	}
	d, ok := s.baseDoc(docID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDocNotFound, docID)
	}
	lo, hi := s.base.fwdOff[d], s.base.fwdOff[d+1]
	v := make(Vector, hi-lo)
	for j := lo; j < hi; j++ {
		t := s.base.fwdTermAt(j)
		v[t] = float64(s.base.fwdTF[j]) * s.idfOf(t)
	}
	return v, nil
}

// DocNorm returns the merged-statistics TF-IDF norm of a live document
// (0 for unknown or dead documents). Weights accumulate in the per-doc
// sorted term order, matching the live index bit for bit.
func (s *Segmented) DocNorm(docID string) float64 {
	if s.pristine() {
		return s.base.DocNorm(docID)
	}
	if od := s.overlay(docID); od != nil {
		return s.overNorm(od)
	}
	d, ok := s.baseDoc(docID)
	if !ok {
		return 0
	}
	return s.baseNorm(d)
}

// overNorm is DocNorm of an overlay document.
func (s *Segmented) overNorm(od *overlayDoc) float64 {
	var sum float64
	for _, dt := range od.terms {
		w := float64(dt.tf) * s.idfOf(dt.term)
		sum += w * w
	}
	return math.Sqrt(sum)
}

// baseNorm is DocNorm of a live base document under merged statistics.
func (s *Segmented) baseNorm(d int32) float64 {
	var sum float64
	for j := s.base.fwdOff[d]; j < s.base.fwdOff[d+1]; j++ {
		w := float64(s.base.fwdTF[j]) * s.idfOf(s.base.fwdTermAt(j))
		sum += w * w
	}
	return math.Sqrt(sum)
}

// DocCosine returns the cosine similarity between a live document's
// TF-IDF vector and a compiled query: what TFIDFVector(docID).Cosine
// computes against the query's vector, with no map built and no norm
// recomputed. 0 for unknown or dead documents and for empty queries.
//
// The document's sorted forward entries are walked against the query's
// run in term order, so every sum runs in term order and one view asked
// twice answers bit for bit the same. A run resolved against this
// view's base merges with a base document on term IDs; any other run
// resolves its IDs to terms through its own dictionary, so a query
// compiled against any base, another shard's included, scores here. On a pristine view the base's
// precomputed weights and norm serve; otherwise weights are recomputed
// under merged statistics, as TFIDFVector and DocNorm do.
func (s *Segmented) DocCosine(docID string, cq *CompiledVector) float64 {
	if cq.Norm() == 0 {
		return 0
	}
	var dot, dn float64
	q := cq.cursor()
	if od := s.overlay(docID); od != nil {
		var sq float64
		for _, dt := range od.terms {
			w := float64(dt.tf) * s.idfOf(dt.term)
			sq += w * w
			if qw, ok := q.weight(dt.term); ok {
				dot += w * qw
			}
		}
		dn = math.Sqrt(sq)
	} else {
		d, ok := s.baseDoc(docID)
		if !ok {
			return 0
		}
		b, pristine := s.base, s.pristine()
		// A run resolved against this base merges on term IDs; any
		// other on the terms themselves.
		byID, qi := cq.dict.base == b, cq.baseCursor()
		var sq float64
		for j := b.fwdOff[d]; j < b.fwdOff[d+1]; j++ {
			w := b.fwdW[j]
			if !pristine {
				w = float64(b.fwdTF[j]) * s.idfOf(b.fwdTermAt(j))
				sq += w * w
			}
			var qw float64
			if byID {
				qw, ok = qi.weight(b.fwdTerm[j])
			} else {
				qw, ok = q.weight(b.fwdTermAt(j))
			}
			if ok {
				dot += w * qw
			}
		}
		dn = b.docNorm[d]
		if !pristine {
			dn = math.Sqrt(sq)
		}
	}
	if dn == 0 {
		return 0
	}
	return dot / (dn * cq.norm)
}

// Search ranks live documents against the query with BM25, identically
// to a full rebuild over the merged corpus: SearchTerms under the view's
// own statistics.
func (s *Segmented) Search(query string, k int) []Result {
	if s.pristine() {
		return s.base.Search(query, k)
	}
	terms := Terms(query)
	return s.SearchTerms(terms, k, s.Stats(terms))
}

// SearchVector ranks live documents by cosine similarity to the query
// vector under merged statistics, identically to a full rebuild.
func (s *Segmented) SearchVector(query Vector, k int) []Result {
	if s.pristine() {
		return s.base.SearchVector(query, k)
	}
	if len(query) == 0 {
		return nil
	}
	return s.searchRun(VectorRun(query), k)
}

// SearchCompiled ranks live documents against a compiled query. On a
// pristine view this takes the base's postings fast path; otherwise the
// run's terms are re-resolved against the merged corpus.
func (s *Segmented) SearchCompiled(cq *CompiledVector, k int) []Result {
	if s.pristine() {
		return s.base.SearchCompiled(cq, k)
	}
	return s.searchRun(cq, k)
}

// searchRun is the merged-statistics cosine ranking over a run.
// Accumulation order mirrors Index.SearchVector: query-norm and dot
// products in sorted term order, per-posting weights grouped as
// qw × (tf × idf).
func (s *Segmented) searchRun(cq *CompiledVector, k int) []Result {
	if cq.Norm() == 0 {
		return nil
	}
	sc := s.getScratch()
	defer s.base.putScratch(sc)
	for i, w := range cq.ws {
		t := cq.term(i)
		df := s.df(t)
		if df == 0 {
			continue
		}
		s.accumulate(sc, t, termScorer{idf: idfFor(df, s.nDocs), qw: w, cosine: true})
	}
	qn := cq.norm
	nb := int32(len(s.base.ids))
	return s.top(sc, k, func(d int32, dot float64) (float64, bool) {
		var dn float64
		if d < nb {
			dn = s.baseNorm(d)
		} else {
			dn = s.overNorm(s.overDoc[d-nb])
		}
		return dot / (qn * dn), dn != 0
	})
}

// getScratch takes a pooled accumulator from the base, long enough for
// the base's dense IDs and every overlay ordinal after them.
func (s *Segmented) getScratch() *frozenScratch {
	return s.base.getScratch(len(s.base.ids) + len(s.overDoc))
}

// termScorer is one query term's per-posting contribution: BM25 under
// the term's IDF and the corpus's average length, or, for cosine, the
// query weight times the posting's tf × idf. Each expression is the one
// the live index evaluates, so the sums stay bit-identical.
type termScorer struct {
	idf    float64
	avgLen float64 // BM25
	qw     float64 // cosine
	cosine bool
}

func (c termScorer) score(tf float64, docLen int32) float64 {
	if c.cosine {
		return c.qw * (tf * c.idf)
	}
	return c.idf * tf * (bm25K1 + 1) /
		(tf + bm25K1*(1-bm25B+bm25B*float64(docLen)/c.avgLen))
}

// accumulate adds one query term's contributions to the dense
// accumulators: base postings, then overlay postings, the order the
// live index sums in. A document's sum runs in query-term order, as the
// map it replaces did. Dead base documents accumulate too; top drops
// them, which costs one lookup per matched document instead of one per
// posting.
func (s *Segmented) accumulate(sc *frozenScratch, term string, c termScorer) {
	b := s.base
	if ti, ok := b.terms[term]; ok {
		for j := ti.off; j < ti.off+ti.n; j++ {
			d := b.postDoc[j]
			sc.add(d, c.score(float64(b.postTF[j]), b.docLen[d]))
		}
	}
	nb := int32(len(b.ids))
	for _, p := range s.overPost[term] {
		sc.add(nb+p.ord, c.score(float64(p.tf), p.length))
	}
}

// top selects the k best accumulated live documents, ties broken by
// document ID as every representation breaks them. final, when set,
// turns an accumulator into its score, or reports false to drop the
// document.
func (s *Segmented) top(sc *frozenScratch, k int, final func(d int32, acc float64) (float64, bool)) []Result {
	h := topk.New[Result](k, resultBetter)
	nb := int32(len(s.base.ids))
	for _, d := range sc.touched {
		var id string
		if d < nb {
			if _, gone := s.dead[d]; gone {
				continue
			}
			id = s.base.ids[d]
		} else {
			id = s.overDoc[d-nb].id
		}
		score := sc.scores[d]
		if final != nil {
			var ok bool
			if score, ok = final(d, score); !ok {
				continue
			}
		}
		h.Push(Result{DocID: id, Score: score})
	}
	return h.Sorted()
}

package textindex

// Scatter-gather search support. A sharded deployment holds N disjoint
// Segmented views, one per shard; BM25 scores depend on corpus-wide
// statistics (document frequency, corpus size, average length), so a
// shard cannot rank its documents alone and stay comparable across
// shards. The protocol is two-phase: the coordinator gathers each
// shard's CorpusStats for the query's terms, sums them with MergeStats,
// then has every shard score its local postings under the merged global
// statistics via SearchTerms. A document's BM25 score is a pure function
// of its own postings plus those global statistics, and the shards
// partition the corpus, so the fan-out reproduces an unsharded build's
// scores bit for bit — the same parity discipline Segmented itself keeps
// against full rebuilds.

// CorpusStats are the corpus-wide aggregates BM25 needs, restricted to
// the terms of one query. All fields are integer counts, so cross-shard
// merging is exact (no float summation order to worry about).
type CorpusStats struct {
	// Docs and TotalLen count live documents and their tokens.
	Docs     int
	TotalLen int
	// DF maps each requested term to its live document frequency. Terms
	// absent from the corpus carry 0 entries (or are simply absent).
	DF map[string]int
}

// Stats reports this view's contribution to the global statistics for
// the given terms.
func (s *Segmented) Stats(terms []string) CorpusStats {
	st := CorpusStats{Docs: s.nDocs, TotalLen: s.totalLen, DF: make(map[string]int, len(terms))}
	for _, t := range terms {
		if _, ok := st.DF[t]; ok {
			continue
		}
		st.DF[t] = s.df(t)
	}
	return st
}

// MergeStats sums per-shard statistics into the global view. Shards
// hold disjoint documents, so plain addition is exact.
func MergeStats(parts []CorpusStats) CorpusStats {
	g := CorpusStats{DF: make(map[string]int)}
	for _, p := range parts {
		g.Docs += p.Docs
		g.TotalLen += p.TotalLen
		for t, df := range p.DF {
			g.DF[t] += df
		}
	}
	return g
}

// SearchStats ranks this view's documents against the query under the
// supplied global statistics instead of the view's own: SearchTerms over
// the query's Terms.
func (s *Segmented) SearchStats(query string, k int, g CorpusStats) []Result {
	return s.SearchTerms(Terms(query), k, g)
}

// SearchTerms is the one BM25 loop over a view — Search is this under the
// view's own Stats — for a query already tokenised with Terms, so a
// coordinator tokenises once for its statistics and every shard's
// scoring. It uses the live index's IDF formula and accumulation order
// (base postings, then overlay postings), so a document scores
// identically whether its shard or an unsharded build ranks it. The
// pristine fast path is deliberately not taken: the base's precomputed
// IDFs are local, not global. The dense accumulators are the ones the
// pristine path uses.
func (s *Segmented) SearchTerms(terms []string, k int, g CorpusStats) []Result {
	if g.Docs == 0 || s.nDocs == 0 {
		return nil
	}
	avgLen := float64(g.TotalLen) / float64(g.Docs)
	if avgLen == 0 {
		avgLen = 1
	}
	sc := s.getScratch()
	defer s.base.putScratch(sc)
	for _, term := range terms {
		df := g.DF[term]
		if df == 0 {
			continue
		}
		s.accumulate(sc, term, termScorer{idf: idfFor(df, g.Docs), avgLen: avgLen})
	}
	return s.top(sc, k, nil)
}

package textindex

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// randomText draws n words from the shared small vocabulary.
func randomText(rng *rand.Rand, n int) string {
	vocab := []string{
		"graph", "partition", "stream", "tensor", "social", "network",
		"query", "ranking", "index", "cluster", "community", "context",
		"sketch", "latency", "snapshot", "peer", "overlay", "segment",
	}
	words := make([]string, n)
	for i := range words {
		words[i] = vocab[rng.Intn(len(vocab))]
	}
	return strings.Join(words, " ")
}

// TestSegmentedParity is the base+overlay extension of the PR-3 frozen
// parity property test: starting from a frozen base segment, random
// streams of document adds, updates and deletes are applied through
// WithDocs/WithoutDocs while the same mutations replay against a live
// Index. After every round, the segmented view must reproduce both the
// live index and a from-scratch Frozen of the final corpus exactly —
// results, scores (bit-identical) and tie-break order — across Search,
// SearchVector, SearchCompiled, TFIDFVector, DocNorm, Text and DocIDs.
func TestSegmentedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := []string{
		"graph partition", "stream tensor graph", "overlay segment snapshot",
		"latency", "unknown words only", "", "graph graph graph",
	}
	for trial := 0; trial < 25; trial++ {
		// Base corpus, frozen.
		live, _ := randomCorpus(rng, 1+rng.Intn(25))
		base := live.Freeze()
		seg := NewSegmented(base)

		rounds := 1 + rng.Intn(4)
		for round := 0; round < rounds; round++ {
			// A chunk of adds/updates: new IDs and existing ones (updates
			// shadow base versions through tombstones).
			chunk := make(map[string]string)
			for i := 0; i < 1+rng.Intn(6); i++ {
				var id string
				if rng.Intn(2) == 0 {
					id = fmt.Sprintf("doc/%02d", rng.Intn(30)) // maybe existing
				} else {
					id = fmt.Sprintf("new/%d-%d", round, i)
				}
				chunk[id] = randomText(rng, 1+rng.Intn(20))
			}
			seg = seg.WithDocs(chunk)
			for id, text := range chunk {
				live.Add(id, text)
			}
			// Occasionally delete a document outright.
			if rng.Intn(3) == 0 {
				victims := live.DocIDs()
				if len(victims) > 1 {
					id := victims[rng.Intn(len(victims))]
					seg = seg.WithoutDocs([]string{id})
					live.Remove(id)
				}
			}

			fresh := live.Freeze() // the from-scratch build to match
			label := func(what string) string {
				return fmt.Sprintf("trial %d round %d %s", trial, round, what)
			}
			if seg.Len() != live.Len() || seg.Len() != fresh.Len() {
				t.Fatalf("%s: len seg=%d live=%d fresh=%d", label("Len"), seg.Len(), live.Len(), fresh.Len())
			}
			segIDs, freshIDs := seg.DocIDs(), fresh.DocIDs()
			for i := range freshIDs {
				if segIDs[i] != freshIDs[i] {
					t.Fatalf("%s: id[%d] seg=%q fresh=%q", label("DocIDs"), i, segIDs[i], freshIDs[i])
				}
			}
			for _, q := range queries {
				for _, k := range []int{1, 3, 10, 0} {
					sameResults(t, label(fmt.Sprintf("Search(%q,%d) vs live", q, k)),
						live.Search(q, k), seg.Search(q, k))
					sameResults(t, label(fmt.Sprintf("Search(%q,%d) vs fresh", q, k)),
						fresh.Search(q, k), seg.Search(q, k))
				}
			}
			for qi := 0; qi < 4; qi++ {
				qv := randomQueryVector(rng)
				// Compiled against the *base* segment: the index-independent
				// half must serve the overlay view with merged statistics.
				cq := base.Compile(qv)
				for _, k := range []int{1, 5, 0} {
					want := live.SearchVector(qv, k)
					sameResults(t, label(fmt.Sprintf("SearchVector(#%d,%d)", qi, k)),
						want, seg.SearchVector(qv, k))
					sameResults(t, label(fmt.Sprintf("SearchCompiled(#%d,%d)", qi, k)),
						want, seg.SearchCompiled(cq, k))
					sameResults(t, label(fmt.Sprintf("fresh SearchVector(#%d,%d)", qi, k)),
						fresh.SearchVector(qv, k), seg.SearchVector(qv, k))
				}
			}
			for _, id := range freshIDs {
				fv, ferr := fresh.TFIDFVector(id)
				sv, serr := seg.TFIDFVector(id)
				if (ferr == nil) != (serr == nil) {
					t.Fatalf("%s: TFIDFVector(%s) fresh err %v seg err %v", label("TFIDF"), id, ferr, serr)
				}
				if len(fv) != len(sv) {
					t.Fatalf("%s: TFIDFVector(%s) fresh %d terms seg %d", label("TFIDF"), id, len(fv), len(sv))
				}
				for term, w := range fv {
					if sv[term] != w {
						t.Fatalf("%s: TFIDFVector(%s) term %q fresh %v seg %v", label("TFIDF"), id, term, w, sv[term])
					}
				}
				if fn, sn := fresh.DocNorm(id), seg.DocNorm(id); fn != sn {
					t.Fatalf("%s: DocNorm(%s) fresh %v seg %v", label("DocNorm"), id, fn, sn)
				}
				ft, _ := fresh.Text(id)
				st, err := seg.Text(id)
				if err != nil || ft != st {
					t.Fatalf("%s: Text(%s) mismatch (err %v)", label("Text"), id, err)
				}
			}
		}
	}
}

// TestDocCosineMatchesVectorCosine: DocCosine agrees with the map-vector
// oracle it replaced, TFIDFVector(doc).Cosine(query), to a part in 1e12
// on pristine, overlay-added and tombstoned views, scores 0 for unknown
// and dead documents, reads nothing of the query but its index-
// independent half (a query compiled against another corpus's base
// scores identically), and is bit-for-bit repeatable.
func TestDocCosineMatchesVectorCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	other, _ := randomCorpus(rng, 9)
	otherBase := other.Freeze()
	check := func(label string, seg *Segmented, ids []string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			qv := randomQueryVector(rng)
			cq := seg.Base().Compile(qv)
			foreign := otherBase.Compile(qv)
			for _, id := range ids {
				got := seg.DocCosine(id, cq)
				want := 0.0
				if dv, err := seg.TFIDFVector(id); err == nil {
					want = dv.Cosine(qv)
				}
				if math.Abs(got-want) > 1e-12*math.Max(math.Abs(got), math.Abs(want)) {
					t.Fatalf("%s: DocCosine(%s, #%d) = %v, oracle %v", label, id, qi, got, want)
				}
				if again, f := seg.DocCosine(id, cq), seg.DocCosine(id, foreign); again != got || f != got {
					t.Fatalf("%s: DocCosine(%s, #%d) = %v, again %v, foreign-compiled %v", label, id, qi, got, again, f)
				}
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		live, ids := randomCorpus(rng, 2+rng.Intn(20))
		seg := NewSegmented(live.Freeze())
		probe := append(ids, "missing")
		check(fmt.Sprintf("trial %d pristine", trial), seg, probe)

		added := make(map[string]string)
		for i := 0; i < 1+rng.Intn(5); i++ {
			id := fmt.Sprintf("new/%d", i)
			added[id] = randomText(rng, 1+rng.Intn(20))
			probe = append(probe, id)
		}
		added[ids[0]] = randomText(rng, 1+rng.Intn(20)) // shadows a base doc
		seg = seg.WithDocs(added)
		check(fmt.Sprintf("trial %d overlay", trial), seg, probe)

		seg = seg.WithoutDocs([]string{ids[len(ids)-1], "new/0"})
		check(fmt.Sprintf("trial %d tombstoned", trial), seg, probe)
		for _, dead := range []string{ids[len(ids)-1], "new/0", "missing"} {
			if got := seg.DocCosine(dead, seg.Base().Compile(Vector{"graph": 1})); got != 0 {
				t.Fatalf("trial %d: dead or unknown %s scores %v", trial, dead, got)
			}
		}
	}
	if got := NewSegmented(NewIndex().Freeze()).DocCosine("x", (&Frozen{}).Compile(nil)); got != 0 {
		t.Fatalf("empty query scores %v", got)
	}
}

// TestSegmentedTombstones checks the shadowing and deletion contract
// explicitly: updated base docs become tombstones, their old text is
// unreachable, and deletes drop docs from every read path.
func TestSegmentedTombstones(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "graph partitioning systems")
	ix.Add("b", "stream processing engines")
	ix.Add("c", "community detection")
	seg := NewSegmented(ix.Freeze())

	seg = seg.WithDocs(map[string]string{"a": "tensor sketches"}) // shadow base a
	if seg.Tombstones() != 1 || seg.OverlayDocs() != 1 {
		t.Fatalf("tombstones=%d overlay=%d, want 1/1", seg.Tombstones(), seg.OverlayDocs())
	}
	if res := seg.Search("graph", 10); len(res) != 0 {
		t.Fatalf("shadowed text still searchable: %v", res)
	}
	if res := seg.Search("tensor", 10); len(res) != 1 || res[0].DocID != "a" {
		t.Fatalf("overlay version not searchable: %v", res)
	}
	txt, err := seg.Text("a")
	if err != nil || txt != "tensor sketches" {
		t.Fatalf("Text(a) = %q, %v", txt, err)
	}

	seg = seg.WithoutDocs([]string{"a", "b", "missing"})
	if seg.Len() != 1 {
		t.Fatalf("len = %d after deletes, want 1", seg.Len())
	}
	if _, err := seg.Text("a"); err == nil {
		t.Fatal("deleted overlay doc still readable")
	}
	if _, err := seg.TFIDFVector("b"); err == nil {
		t.Fatal("deleted base doc still readable")
	}
	if seg.DocNorm("b") != 0 {
		t.Fatal("deleted base doc has nonzero norm")
	}
	if got := seg.DocIDs(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("DocIDs = %v, want [c]", got)
	}
}

// TestSegmentedImmutable checks that WithDocs never mutates the parent
// view: a reader holding the old Segmented keeps seeing the old corpus.
func TestSegmentedImmutable(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "graph partitioning")
	v0 := NewSegmented(ix.Freeze())
	v1 := v0.WithDocs(map[string]string{"b": "graph streams"})
	v2 := v1.WithDocs(map[string]string{"c": "graph tensors"})

	if got := len(v0.Search("graph", 10)); got != 1 {
		t.Fatalf("v0 sees %d docs, want 1", got)
	}
	if got := len(v1.Search("graph", 10)); got != 2 {
		t.Fatalf("v1 sees %d docs, want 2", got)
	}
	if got := len(v2.Search("graph", 10)); got != 3 {
		t.Fatalf("v2 sees %d docs, want 3", got)
	}
}

// mapSearchTerms is the map-accumulator BM25 loop SearchTerms replaced,
// kept as its oracle: one string-keyed sum per document, dead base
// documents skipped per posting, overlay lengths read through s.over.
func mapSearchTerms(s *Segmented, terms []string, k int, g CorpusStats) []Result {
	if g.Docs == 0 || s.nDocs == 0 {
		return nil
	}
	avgLen := float64(g.TotalLen) / float64(g.Docs)
	if avgLen == 0 {
		avgLen = 1
	}
	scores := make(map[string]float64)
	for _, term := range terms {
		df := g.DF[term]
		if df == 0 {
			continue
		}
		idf := idfFor(df, g.Docs)
		if ti, ok := s.base.terms[term]; ok {
			for j := ti.off; j < ti.off+ti.n; j++ {
				d := s.base.postDoc[j]
				if _, gone := s.dead[d]; gone {
					continue
				}
				tf := float64(s.base.postTF[j])
				dl := float64(s.base.docLen[d])
				scores[s.base.ids[d]] += idf * tf * (bm25K1 + 1) /
					(tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
			}
		}
		for _, p := range s.overPost[term] {
			od := s.overDoc[p.ord]
			tf := float64(p.tf)
			dl := float64(od.length)
			scores[od.id] += idf * tf * (bm25K1 + 1) /
				(tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		}
	}
	return topResults(scores, k)
}

// termWeight is one (term, weight) component of a query vector.
type termWeight struct {
	t string
	w float64
}

// sortedPairs lists a vector's components in term order.
func sortedPairs(v Vector) []termWeight {
	pairs := make([]termWeight, 0, len(v))
	for t, w := range v {
		pairs = append(pairs, termWeight{t, w})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].t < pairs[j].t })
	return pairs
}

// mapSearchPairs is the map-accumulator cosine loop of the merged
// view's vector search, kept as its oracle.
func mapSearchPairs(s *Segmented, pairs []termWeight, k int) []Result {
	dots := make(map[string]float64)
	var qnSq float64
	for _, p := range pairs {
		qnSq += p.w * p.w
		df := s.df(p.t)
		if df == 0 {
			continue
		}
		idf := idfFor(df, s.nDocs)
		if ti, ok := s.base.terms[p.t]; ok {
			for j := ti.off; j < ti.off+ti.n; j++ {
				d := s.base.postDoc[j]
				if _, gone := s.dead[d]; gone {
					continue
				}
				dots[s.base.ids[d]] += p.w * (float64(s.base.postTF[j]) * idf)
			}
		}
		for _, op := range s.overPost[p.t] {
			dots[s.overDoc[op.ord].id] += p.w * (float64(op.tf) * idf)
		}
	}
	if qnSq == 0 {
		return nil
	}
	qn := math.Sqrt(qnSq)
	scores := make(map[string]float64, len(dots))
	for doc, dot := range dots {
		dn := s.DocNorm(doc)
		if dn == 0 {
			continue
		}
		scores[doc] = dot / (qn * dn)
	}
	return topResults(scores, k)
}

// TestSegmentedDenseMatchesMapOracle: the dense accumulators (base dense
// IDs, then overlay ordinals) rank exactly as the string-keyed maps they
// replaced — same documents, bit-identical scores, same tie-breaks —
// across a seeded churn of adds, replacements (which reuse ordinals),
// deletes (which leave ordinal holes) and queries with repeated terms,
// under the view's own statistics and under foreign merged ones.
func TestSegmentedDenseMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	queries := []string{
		"graph partition", "stream stream tensor graph stream", "overlay segment snapshot",
		"latency", "unknown words only", "", "graph graph graph", "peer context sketch index",
	}
	foreign, _ := randomCorpus(rng, 12)
	foreignView := NewSegmented(foreign.Freeze()).WithDocs(map[string]string{"f/1": "graph stream overlay"})
	for trial := 0; trial < 20; trial++ {
		live, _ := randomCorpus(rng, rng.Intn(25))
		seg := NewSegmented(live.Freeze())
		views := []*Segmented{seg}
		for round := 0; round < 6; round++ {
			chunk := make(map[string]string)
			for i := 0; i < rng.Intn(7); i++ {
				var id string
				switch rng.Intn(3) {
				case 0:
					id = fmt.Sprintf("doc/%02d", rng.Intn(30)) // maybe a base doc
				case 1:
					id = fmt.Sprintf("new/%d", rng.Intn(8)) // maybe an overlay doc
				default:
					id = fmt.Sprintf("new/%d-%d", round, i)
				}
				chunk[id] = randomText(rng, 1+rng.Intn(20))
			}
			seg = seg.WithDocs(chunk)
			if ids := seg.DocIDs(); len(ids) > 1 && rng.Intn(2) == 0 {
				seg = seg.WithoutDocs([]string{ids[rng.Intn(len(ids))], "missing"})
			}
			views = append(views, seg)

			label := fmt.Sprintf("trial %d round %d", trial, round)
			for _, q := range queries {
				terms := Terms(q)
				own := seg.Stats(terms)
				merged := MergeStats([]CorpusStats{own, foreignView.Stats(terms)})
				for _, k := range []int{1, 3, 10, 0} {
					check := func(what string, got, want []Result) {
						t.Helper()
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s(%q, %d)\ndense: %v\nmap:   %v", label, what, q, k, got, want)
						}
					}
					if !seg.pristine() {
						check("Search", seg.Search(q, k), mapSearchTerms(seg, terms, k, own))
					}
					check("SearchStats", seg.SearchStats(q, k, merged), mapSearchTerms(seg, terms, k, merged))
				}
			}
			if seg.pristine() {
				continue
			}
			for qi := 0; qi < 4; qi++ {
				qv := randomQueryVector(rng)
				cq := seg.Base().Compile(qv)
				for _, k := range []int{1, 5, 0} {
					want := mapSearchPairs(seg, sortedPairs(qv), k)
					if got := seg.SearchVector(qv, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: SearchVector(#%d, %d)\ndense: %v\nmap:   %v", label, qi, k, got, want)
					}
					if got := seg.SearchCompiled(cq, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: SearchCompiled(#%d, %d)\ndense: %v\nmap:   %v", label, qi, k, got, want)
					}
				}
			}
		}

		// Every view of the trial shares the base's scratch pool, each
		// asking for a different length: query them all at once.
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 3*len(views); i++ {
					v := views[(i+w)%len(views)]
					q := queries[(i*7+w)%len(queries)]
					terms := Terms(q)
					g := v.Stats(terms)
					if got, want := v.SearchStats(q, 5, g), mapSearchTerms(v, terms, 5, g); !reflect.DeepEqual(got, want) {
						t.Errorf("trial %d concurrent SearchStats(%q): dense %v, map %v", trial, q, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

package textindex

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

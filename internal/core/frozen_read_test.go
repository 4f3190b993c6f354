package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"hive/internal/graph"
	"hive/internal/textindex"
)

// TestSnapshotTablesPopulated checks that Build precomputes the frozen
// searcher and every read-path table.
func TestSnapshotTablesPopulated(t *testing.T) {
	st, eng := zachWorld(t)
	docs := len(st.Papers())
	for _, u := range st.Users() {
		docs += len(st.PresentationsOfUser(u)) + len(st.QuestionsBy(u))
	}
	if got := eng.Frozen().Len(); got != docs || docs == 0 {
		t.Fatalf("frozen base holds %d docs, the store %d", got, docs)
	}
	for _, u := range eng.users {
		if _, ok := eng.ctx.base[u]; !ok {
			t.Fatalf("no precomputed context vector for %s", u)
		}
		if _, ok := eng.content.base[u]; !ok {
			t.Fatalf("no precomputed content vector for %s", u)
		}
	}
	if eng.inter.base == nil || eng.pop.base == nil {
		t.Fatal("interaction tables not precomputed")
	}
}

// TestPrecomputedTablesMatchRecomputation checks the snapshot tables
// equal what the per-request derivations used to produce.
func TestPrecomputedTablesMatchRecomputation(t *testing.T) {
	_, eng := zachWorld(t)
	for _, u := range eng.users {
		want := eng.computeContextVector(u)
		got := eng.ContextVector(u)
		if len(want) != len(got) {
			t.Fatalf("ctx vector for %s: %d terms precomputed, %d recomputed", u, len(got), len(want))
		}
		for term, w := range want {
			// Concept-map activation normalizes over map iteration order,
			// so recomputation may differ in the last ulp; compare with a
			// tight relative tolerance.
			if d := got[term] - w; d > 1e-9*(1+w) || -d > 1e-9*(1+w) {
				t.Fatalf("ctx vector for %s: term %q = %v, want %v", u, term, got[term], w)
			}
		}
		wantC := eng.computeUserContentVector(u)
		gotC := eng.userContentVector(u)
		if len(wantC) != gotC.Len() {
			t.Fatalf("content vector for %s: %d vs %d terms", u, gotC.Len(), len(wantC))
		}
	}
	wantPop := map[string]int{}
	for _, ev := range eng.store.EventsSince(0, 0) {
		if doc := eng.docIDForObject(ev.Object); doc != "" {
			wantPop[doc]++
		}
	}
	for doc, n := range wantPop {
		if got, _ := eng.pop.get(doc); got != n {
			t.Fatalf("popularity[%s] = %d, want %d", doc, got, n)
		}
	}
}

// liveIndexOf rebuilds the live (locked, map-based) index — the parity
// oracle — over the documents a snapshot serves. The engine keeps no
// live index of its own.
func liveIndexOf(t *testing.T, e *Engine) *textindex.Index {
	t.Helper()
	ix := textindex.NewIndex()
	for _, id := range e.seg.DocIDs() {
		text, err := e.seg.Text(id)
		if err != nil {
			t.Fatal(err)
		}
		ix.Add(id, text)
	}
	return ix
}

// TestEngineSearchMatchesLiveIndex checks the engine's frozen-backed
// search equals the live index path end to end.
func TestEngineSearchMatchesLiveIndex(t *testing.T) {
	_, eng := zachWorld(t)
	ix := liveIndexOf(t, eng)
	for _, q := range []string{"graph partitioning", "diffusion kernel", "community", "nothing matches this"} {
		frozen := eng.Search(q, 10)
		live := ix.Search(q, 10)
		if len(frozen) != len(live) {
			t.Fatalf("Search(%q): frozen %d results, live %d", q, len(frozen), len(live))
		}
		for i := range live {
			if frozen[i].DocID != live[i].DocID || frozen[i].Score != live[i].Score {
				t.Fatalf("Search(%q) rank %d: frozen %+v, live %+v", q, i, frozen[i], live[i])
			}
		}
	}
	ctx := eng.ContextVector("zach")
	frozen := eng.seg.SearchVector(ctx, 10)
	live := ix.SearchVector(ctx, 10)
	if len(frozen) != len(live) {
		t.Fatalf("SearchVector: frozen %d, live %d", len(frozen), len(live))
	}
	for i := range live {
		if frozen[i] != live[i] {
			t.Fatalf("SearchVector rank %d: frozen %+v, live %+v", i, frozen[i], live[i])
		}
	}
}

// TestRecommendPeersMemoized checks the PageRank memo returns identical
// recommendations on repeat calls and is safe under concurrency.
func TestRecommendPeersMemoized(t *testing.T) {
	_, eng := zachWorld(t)
	first, err := eng.RecommendPeers("zach", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.pprMemo) == 0 {
		t.Fatal("memo not populated after first request")
	}
	again, err := eng.RecommendPeers("zach", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(again) {
		t.Fatalf("memoized call changed results: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i].UserID != again[i].UserID || first[i].Score != again[i].Score {
			t.Fatalf("rank %d: %+v vs %+v", i, first[i], again[i])
		}
	}

	// Concurrent requests across users: memo misses compute in parallel
	// on pooled workspaces; run with -race to verify.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, u := range []string{"zach", "ann", "aaron", "carl", "advisor"} {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if _, err := eng.RecommendPeers(u, 3); err != nil {
					t.Error(err)
				}
			}(u)
		}
	}
	wg.Wait()
	if len(eng.pprMemo) > pprMemoMax {
		t.Fatalf("memo exceeded bound: %d", len(eng.pprMemo))
	}
}

// TestPPRWorkspaceReuseMatchesFreshRuns checks the reusable workspace
// yields the same ranks as workspace-free calls, including after being
// re-bound to a different graph.
func TestPPRWorkspaceReuseMatchesFreshRuns(t *testing.T) {
	b1 := graph.NewBuilder()
	for _, k := range []string{"a", "b", "c", "d"} {
		b1.EnsureNode(k, "user")
	}
	_ = b1.AddEdge(0, 1, "e", 1)
	_ = b1.AddEdge(1, 2, "e", 2)
	_ = b1.AddEdge(2, 0, "e", 1)
	_ = b1.AddEdge(2, 3, "e", 0.5)
	g1 := b1.Freeze()

	b2 := graph.NewBuilder()
	for _, k := range []string{"x", "y"} {
		b2.EnsureNode(k, "user")
	}
	_ = b2.AddEdge(0, 1, "e", 1)
	g2 := b2.Freeze()

	ws := &graph.PPRWorkspace{}
	for trial := 0; trial < 3; trial++ {
		for _, g := range []*graph.Graph{g1, g2} {
			restart := map[graph.NodeID]float64{0: 1}
			got := g.PersonalizedPageRankWith(ws, restart, graph.PageRankOptions{})
			want := g.PersonalizedPageRank(restart, graph.PageRankOptions{})
			if len(got) != len(want) {
				t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d node %d: ws %v, fresh %v", trial, i, got[i], want[i])
				}
			}
		}
	}
	// The returned slice must stay valid after the workspace is reused.
	keep := g1.PersonalizedPageRankWith(ws, map[graph.NodeID]float64{1: 1}, graph.PageRankOptions{})
	sum := 0.0
	for _, v := range keep {
		sum += v
	}
	_ = g2.PersonalizedPageRankWith(ws, map[graph.NodeID]float64{0: 1}, graph.PageRankOptions{})
	sum2 := 0.0
	for _, v := range keep {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatal("rank slice was clobbered by workspace reuse")
	}
}

// TestSearchWithContextExact: context search re-ranks on the compiled
// context in a fixed order, so one snapshot asked twice answers bit for
// bit the same (it used to sum over map order), and every score still
// equals the map-vector oracle it replaced, bm25 × (1 + cosine(doc
// vector, context vector)), to a part in 1e12.
func TestSearchWithContextExact(t *testing.T) {
	eng := buildWorkloadEngine(t, 24)
	queries := []string{"graph partitioning", "social networks", "stream processing systems", "tensor"}
	users := append(eng.Store().Users(), "ghost")
	hits := 0
	for _, u := range users {
		ctx := eng.ContextVector(u)
		for _, q := range queries {
			first := eng.SearchWithContext(u, q, 5)
			if again := eng.SearchWithContext(u, q, 5); !reflect.DeepEqual(first, again) {
				t.Fatalf("SearchWithContext(%s, %q) not repeatable:\n%v\n%v", u, q, first, again)
			}
			bm25 := map[string]float64{}
			for _, r := range eng.Search(q, 20) {
				bm25[r.DocID] = r.Score
			}
			for _, r := range first {
				want := bm25[r.DocID]
				if dv, err := eng.Segment().TFIDFVector(r.DocID); err == nil {
					want *= 1 + dv.Cosine(ctx)
				}
				if math.Abs(r.Score-want) > 1e-12*want {
					t.Fatalf("SearchWithContext(%s, %q) %s = %v, oracle %v", u, q, r.DocID, r.Score, want)
				}
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no context search hits to compare")
	}
}

// TestContextVectorSharedReadOnly documents that callers receive the
// shared precomputed vector: both calls must observe the same contents.
func TestContextVectorSharedReadOnly(t *testing.T) {
	_, eng := zachWorld(t)
	a := eng.ContextVector("zach")
	b := eng.ContextVector("zach")
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("inconsistent shared vectors: %d vs %d", len(a), len(b))
	}
	var _ textindex.Vector = a
}

// TestContextAnswersReproducible builds one store twice and asks both
// snapshots every context service for every user: context search,
// previews, history search, session suggestions and explained peer
// pages must be byte-equal as JSON. Every score summed over a context,
// a session or a content vector runs in term order.
func TestContextAnswersReproducible(t *testing.T) {
	st := seed13Store(t, 64)
	var answers [2][]byte
	for i := range answers {
		eng, err := (&Builder{Store: st, Workers: 2}).Build()
		if err != nil {
			t.Fatal(err)
		}
		var all []any
		docs := eng.seg.DocIDs()
		for j, u := range eng.users {
			all = append(all, eng.SearchWithContext(u, "graph stream processing", 10))
			p, err := eng.Preview(u, docs[j%len(docs)], 3)
			if err != nil {
				t.Fatal(err)
			}
			h, _ := eng.SearchHistory(u, "tensor graph", true, 10)
			recs, _ := eng.RecommendPeers(u, 5)
			all = append(all, p, h, recs)
			for _, c := range st.Conferences() {
				s, _ := eng.SuggestSessions(u, c, 5)
				all = append(all, s)
			}
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = b
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatal("two builds of one store answer the context services differently")
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hive/internal/social"
	"hive/internal/workload"
)

// deltaQueries exercise the merged read path from several angles.
var deltaQueries = []string{
	"graph partitioning", "social media influence", "community detection",
	"diffusion kernel equation", "stream processing", "no such terms here", "",
}

// collectEvents subscribes a recorder to the store's change log.
func collectEvents(st *social.Store) func() []social.ChangeEvent {
	var mu sync.Mutex
	var buf []social.ChangeEvent
	st.OnChange(func(evs []social.ChangeEvent) {
		mu.Lock()
		buf = append(buf, evs...)
		mu.Unlock()
	})
	return func() []social.ChangeEvent {
		mu.Lock()
		defer mu.Unlock()
		out := buf
		buf = nil
		return out
	}
}

// assertSearchParity compares the delta-maintained engine's text read
// path against a from-scratch build, bit for bit.
func assertSearchParity(t *testing.T, label string, delta, fresh *Engine) {
	t.Helper()
	for _, q := range deltaQueries {
		got := delta.Search(q, 10)
		want := fresh.Search(q, 10)
		if len(got) != len(want) {
			t.Fatalf("%s: Search(%q): delta %d results, fresh %d\ndelta: %v\nfresh: %v",
				label, q, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Search(%q) rank %d: delta %+v, fresh %+v", label, q, i, got[i], want[i])
			}
		}
	}
	for _, id := range fresh.seg.DocIDs() {
		fv, ferr := fresh.seg.TFIDFVector(id)
		dv, derr := delta.seg.TFIDFVector(id)
		if (ferr == nil) != (derr == nil) || len(fv) != len(dv) {
			t.Fatalf("%s: TFIDFVector(%s): delta %d terms (err %v), fresh %d (err %v)",
				label, id, len(dv), derr, len(fv), ferr)
		}
		for term, w := range fv {
			if dv[term] != w {
				t.Fatalf("%s: TFIDFVector(%s) term %q: delta %v, fresh %v", label, id, term, dv[term], w)
			}
		}
	}
}

// assertInteractionParity compares interaction vectors and popularity
// exactly: the delta path folds each activity event in exactly once, so
// the tables must equal a full rebuild's.
func assertInteractionParity(t *testing.T, label string, delta, fresh *Engine) {
	t.Helper()
	for u, want := range fresh.inter.base {
		got, _ := delta.inter.get(u)
		if len(got) != len(want) {
			t.Fatalf("%s: interaction vector of %s: delta %d entries, fresh %d (%v vs %v)",
				label, u, len(got), len(want), got, want)
		}
		for doc, w := range want {
			if got[doc] != w {
				t.Fatalf("%s: interaction[%s][%s]: delta %v, fresh %v", label, u, doc, got[doc], w)
			}
		}
	}
	for doc, n := range fresh.pop.base {
		if got, _ := delta.pop.get(doc); got != n {
			t.Fatalf("%s: popularity[%s]: delta %d, fresh %d", label, doc, got, n)
		}
	}
}

// TestApplyDeltaSingleMutation covers the basic write-visibility path:
// one published paper becomes searchable through a delta, with scores
// identical to a full rebuild, without rebuilding anything else.
func TestApplyDeltaSingleMutation(t *testing.T) {
	st, eng := zachWorld(t)
	drain := collectEvents(st)
	drain() // discard fixture-load noise (already in the snapshot)

	p := social.Paper{
		ID: "p-new", Title: "Incremental overlay maintenance for frozen indexes",
		Abstract: "Delta snapshots with segmented overlays and graph partitioning.",
		Authors:  []string{"zach"}, ConferenceID: "edbt13",
	}
	if err := st.PutPaper(p); err != nil {
		t.Fatal(err)
	}
	evs := drain()
	if len(evs) == 0 {
		t.Fatal("no change events emitted")
	}

	b := &Builder{Store: st}
	delta, err := b.ApplyDelta(eng, evs)
	if err != nil {
		t.Fatal(err)
	}
	// The old snapshot is untouched; the new one serves the write.
	if res := eng.Search("incremental overlay maintenance", 5); len(res) != 0 {
		t.Fatalf("old snapshot mutated: %v", res)
	}
	res := delta.Search("incremental overlay maintenance", 5)
	if len(res) == 0 || res[0].DocID != DocPaper+"p-new" {
		t.Fatalf("delta snapshot does not serve the new paper: %v", res)
	}
	// Structural sharing of the untouched heavy structures.
	if delta.peerGraph != eng.peerGraph || delta.kb != eng.kb || delta.concepts != eng.concepts ||
		delta.Frozen() != eng.Frozen() {
		t.Fatal("delta snapshot rebuilt structures the events did not touch")
	}
	if delta.DeltaStats().Deltas != 1 || delta.DeltaStats().OverlayDocs != 1 {
		t.Fatalf("delta stats = %+v", delta.DeltaStats())
	}

	fresh, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assertSearchParity(t, "single mutation", delta, fresh)
	assertInteractionParity(t, "single mutation", delta, fresh)

	// Idempotence: replaying the same batch (e.g. after a compaction
	// race re-pends it) must not change any result.
	again, err := b.ApplyDelta(delta, evs)
	if err != nil {
		t.Fatal(err)
	}
	assertSearchParity(t, "replayed batch", again, fresh)
	assertInteractionParity(t, "replayed batch", again, fresh)
}

// TestOverlayOnlyDocumentReads checks the document reads that take a
// doc ID — previews, annotation, overlap detection, the context re-rank
// — for a document published after the last build, which therefore
// exists in the overlay alone: the delta snapshot serves every one of
// them, the snapshot it derived from none.
func TestOverlayOnlyDocumentReads(t *testing.T) {
	st, eng := zachWorld(t)
	drain := collectEvents(st)
	drain()

	const doc = DocPresentation + "pres-late"
	if err := st.PutPresentation(social.Presentation{ID: "pres-late", PaperID: "p-ann10", Owner: "ann", Title: "Late breaking slides",
		Text: "Influence diffusion in social media graphs. Community structure matters. Zeppelin moorings anchor the overlay."}); err != nil {
		t.Fatal(err)
	}
	delta, err := (&Builder{Store: st}).ApplyDelta(eng, drain())
	if err != nil {
		t.Fatal(err)
	}
	if delta.DeltaStats().OverlayDocs != 1 || delta.Frozen() != eng.Frozen() {
		t.Fatalf("want one overlay doc over the shared base, got %+v", delta.DeltaStats())
	}

	// Each read reports whether it served the document.
	reads := []struct {
		name string
		read func(e *Engine) (bool, error)
	}{
		{"Preview", func(e *Engine) (bool, error) {
			sn, err := e.Preview("zach", doc, 2)
			return len(sn) > 0, err
		}},
		{"SearchWithContext", func(e *Engine) (bool, error) {
			hits := e.SearchWithContext("zach", "zeppelin moorings", 5)
			return len(hits) == 1 && hits[0].DocID == doc && hits[0].Score > 0, nil
		}},
	}
	for _, r := range reads {
		t.Run(r.name, func(t *testing.T) {
			if ok, err := r.read(delta); err != nil || !ok {
				t.Fatalf("delta snapshot did not serve the overlay document (served=%v, err=%v)", ok, err)
			}
			if ok, _ := r.read(eng); ok {
				t.Fatal("the base snapshot serves a document published after it was built")
			}
		})
	}
}

// TestApplyDeltaContextAndMemo checks that workpad events repair the
// affected user's context tables and invalidate only that user's
// PageRank memo entry.
func TestApplyDeltaContextAndMemo(t *testing.T) {
	st, eng := zachWorld(t)
	drain := collectEvents(st)
	drain()

	// Prime the memo for two users.
	if _, err := eng.RecommendPeers("zach", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RecommendPeers("ann", 3); err != nil {
		t.Fatal(err)
	}

	if err := st.PutWorkpad(social.Workpad{ID: "wp-ann", Owner: "ann", Name: "ann context",
		Items: []social.WorkpadItem{{Kind: social.ItemPaper, Ref: "p-carl"}, {Kind: social.ItemUser, Ref: "carl"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetActiveWorkpad("ann", "wp-ann"); err != nil {
		t.Fatal(err)
	}

	delta, err := (&Builder{Store: st}).ApplyDelta(eng, drain())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := delta.pprMemo["zach"]; !ok {
		t.Fatal("unaffected user's memo entry was dropped")
	}
	if _, ok := delta.pprMemo["ann"]; ok {
		t.Fatal("affected user's memo entry survived a workpad change")
	}
	if row, _ := delta.ctx.get("ann"); len(row.pins) != 1 || row.pins[0] != "carl" {
		t.Fatalf("workpad peer refs not repaired: %v", row.pins)
	}
	// The context vector now reflects the workpad (graph-heavy paper).
	oldCtx, newCtx := eng.ContextVector("ann"), delta.ContextVector("ann")
	if len(newCtx) <= len(oldCtx) {
		t.Fatalf("context vector not enriched: %d -> %d terms", len(oldCtx), len(newCtx))
	}
}

// TestApplyDeltaLeavesPrevRowsAlone: a delta that folds activity into an
// interaction row an earlier delta already repaired writes a copy; the
// earlier snapshot, still serving readers, keeps its row as it was.
func TestApplyDeltaLeavesPrevRowsAlone(t *testing.T) {
	st, eng := zachWorld(t)
	drain := collectEvents(st)
	drain()
	b := &Builder{Store: st}
	browse := func(prev *Engine) *Engine {
		t.Helper()
		if _, err := st.LogEvent("zach", "browse", "p-zach", nil); err != nil {
			t.Fatal(err)
		}
		next, err := b.ApplyDelta(prev, drain())
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	first := browse(eng)
	row, _ := first.inter.get("zach")
	before := row[DocPaper+"p-zach"]
	second := browse(first)
	if row, _ := first.inter.get("zach"); row[DocPaper+"p-zach"] != before {
		t.Fatalf("a later delta rewrote the earlier snapshot's row: %v -> %v", before, row[DocPaper+"p-zach"])
	}
	if row, _ := second.inter.get("zach"); row[DocPaper+"p-zach"] != before+verbWeight["browse"] {
		t.Fatalf("second delta row = %v, want %v", row[DocPaper+"p-zach"], before+verbWeight["browse"])
	}
}

// TestApplyDeltaFoldsActivityOutOfSeqOrder: two writers take activity
// sequences in one order and can deliver their batches in the other.
// A delta that folds the higher sequence first must still fold the
// lower one when its batch arrives.
func TestApplyDeltaFoldsActivityOutOfSeqOrder(t *testing.T) {
	st, eng := zachWorld(t)
	drain := collectEvents(st)
	drain()
	b := &Builder{Store: st}
	log := func(actor, object string) []social.ChangeEvent {
		t.Helper()
		if _, err := st.LogEvent(actor, "browse", object, nil); err != nil {
			t.Fatal(err)
		}
		return drain()
	}
	lower, higher := log("ann", "p-advisor"), log("zach", "p-zach")
	next := eng
	for _, evs := range [][]social.ChangeEvent{higher, lower} {
		var err error
		if next, err = b.ApplyDelta(next, evs); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assertInteractionParity(t, "higher sequence folded first", next, fresh)
}

// TestConcurrentActivityFoldsMatchBuild: concurrent writers log
// activity while a subscriber folds each delivered batch the way the
// platform does, one ApplyDelta per batch under one lock. The folded
// tables must equal a fresh build's, whatever order the batches came in.
func TestConcurrentActivityFoldsMatchBuild(t *testing.T) {
	st, eng := zachWorld(t)
	b := &Builder{Store: st}
	var mu sync.Mutex
	cur := eng
	st.OnChange(func(evs []social.ChangeEvent) {
		mu.Lock()
		defer mu.Unlock()
		next, err := b.ApplyDelta(cur, evs)
		if err != nil {
			t.Error(err)
			return
		}
		cur = next
	})

	const writers, each = 4, 300
	actors := []string{"zach", "advisor", "ann", "aaron"}
	objects := []string{"p-zach", "p-advisor", "p-ann10", "p-carl"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := st.LogEvent(actors[w], "browse", objects[(w+i)%len(objects)], nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	fresh, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	assertInteractionParity(t, fmt.Sprintf("%d writers x %d events", writers, each), cur, fresh)
}

// TestDeltaInterleavingParity is the randomized interleaving property
// test (run under -race): a shuffled stream of mutations applies batch
// by batch through ApplyDelta while concurrent readers hammer the
// snapshots; after every batch the text and interaction read paths must
// match a from-scratch rebuild exactly, and at every compaction point
// the compacted engine must answer Search/Recommend/Explain identically
// to an independent fresh build.
func TestDeltaInterleavingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	st, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := workload.Generate(workload.Config{Seed: 42, Users: 24})
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	drain := collectEvents(st)
	drain()

	b := &Builder{Store: st}
	eng, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	users := st.Users()
	sessions := st.SessionsOf(st.Conferences()[0])

	// The shuffled mutation deck: content, interaction and context
	// mutations in random order.
	var muts []func(i int) error
	deck := 8
	if testing.Short() {
		deck = 3
	}
	for n := 0; n < deck; n++ {
		n := n
		muts = append(muts,
			func(i int) error {
				return st.PutPaper(social.Paper{
					ID:       fmt.Sprintf("dp-%d-%d", n, i),
					Title:    fmt.Sprintf("Delta paper %d on graph streams", n),
					Abstract: "Overlay segments, tombstones and merge on read for social graphs.",
					Authors:  []string{users[rng.Intn(len(users))]},
				})
			},
			func(i int) error {
				u := users[rng.Intn(len(users))]
				return st.AskQuestion(social.Question{
					ID: fmt.Sprintf("dq-%d-%d", n, i), Author: u,
					Target: "dp-0-0", Text: "How do tombstones shadow the frozen base postings?",
				})
			},
			func(i int) error {
				_, err := st.LogEvent(users[rng.Intn(len(users))], "browse", "dp-0-0", nil)
				return err
			},
			func(i int) error {
				if len(sessions) == 0 {
					return nil
				}
				return st.CheckIn(sessions[rng.Intn(len(sessions))], users[rng.Intn(len(users))])
			},
		)
	}
	rng.Shuffle(len(muts), func(i, j int) { muts[i], muts[j] = muts[j], muts[i] })

	// Concurrent readers: the snapshot under their feet must always be
	// complete (no torn state); -race checks the memory discipline.
	var cur atomic.Pointer[Engine]
	cur.Store(eng)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := cur.Load()
				e.Search(deltaQueries[rr.Intn(len(deltaQueries))], 5)
				if _, err := e.RecommendPeers(users[rr.Intn(len(users))], 3); err != nil {
					t.Error(err)
					return
				}
				e.RecommendByCF(users[rr.Intn(len(users))], 5)
			}
		}(int64(r))
	}

	const compactEvery = 12
	const verifyEvery = 3 // full rebuilds are the expensive half of the test
	for i, m := range muts {
		if err := m(i); err != nil {
			t.Fatal(err)
		}
		evs := drain()
		next, err := b.ApplyDelta(cur.Load(), evs)
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(next)

		if i%verifyEvery != 0 && (i+1)%compactEvery != 0 {
			continue
		}
		fresh, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("step %d", i)
		assertSearchParity(t, label, next, fresh)
		assertInteractionParity(t, label, next, fresh)

		if (i+1)%compactEvery == 0 {
			// Compaction point: a full build folds the overlay into a new
			// base; everything — including the graph-backed services the
			// deltas deliberately left stale — must now match a fresh
			// independent build.
			compacted, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cur.Store(compacted)
			label := fmt.Sprintf("compaction after step %d", i)
			assertSearchParity(t, label, compacted, fresh)
			assertInteractionParity(t, label, compacted, fresh)
			u, v := users[0], users[1]
			ex1, err1 := compacted.Explain(u, v)
			ex2, err2 := fresh.Explain(u, v)
			if (err1 == nil) != (err2 == nil) || len(ex1.Evidences) != len(ex2.Evidences) {
				t.Fatalf("%s: Explain diverged: %v/%v vs %v/%v", label, ex1, err1, ex2, err2)
			}
			r1, err1 := compacted.RecommendResources(u, 5, false)
			r2, err2 := fresh.RecommendResources(u, 5, false)
			if (err1 == nil) != (err2 == nil) || len(r1) != len(r2) {
				t.Fatalf("%s: RecommendResources diverged: %v vs %v", label, r1, r2)
			}
			for j := range r1 {
				if r1[j] != r2[j] {
					t.Fatalf("%s: RecommendResources rank %d: %+v vs %+v", label, j, r1[j], r2[j])
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDeltaNeverObservesTornBatch checks the batch-atomicity contract:
// a delta applied while another writer is mid-Batched must never
// surface a proper subset of that batch, because the store delivers a
// batch's change events only after the outermost Batched returns.
func TestDeltaNeverObservesTornBatch(t *testing.T) {
	st, eng := zachWorld(t)
	b := &Builder{Store: st}

	var cur atomic.Pointer[Engine]
	cur.Store(eng)
	var applyMu sync.Mutex
	st.OnChange(func(evs []social.ChangeEvent) {
		applyMu.Lock()
		defer applyMu.Unlock()
		next, err := b.ApplyDelta(cur.Load(), evs)
		if err != nil {
			t.Error(err)
			return
		}
		cur.Store(next)
	})

	const batchPapers = 8
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := cur.Load().Search("tornbatchtoken", 2*batchPapers)
				if n := len(res); n != 0 && n != batchPapers {
					t.Errorf("torn batch observed: %d of %d papers visible", n, batchPapers)
					return
				}
			}
		}()
	}

	// Concurrent unrelated writer: keeps deltas flowing mid-batch.
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			_, _ = st.LogEvent("zach", "browse", "p-zach", nil)
		}
	}()

	err := st.Batched(func() error {
		for i := 0; i < batchPapers; i++ {
			if err := st.PutPaper(social.Paper{
				ID:       fmt.Sprintf("torn-%d", i),
				Title:    "tornbatchtoken paper",
				Abstract: "atomic visibility of batched writes",
				Authors:  []string{"zach"},
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	writers.Wait()
	// Drain any events the batch folded in, then verify the final state.
	applyMu.Lock()
	final := cur.Load()
	applyMu.Unlock()
	if res := final.Search("tornbatchtoken", 2*batchPapers); len(res) != batchPapers {
		t.Fatalf("after batch: %d of %d papers visible", len(res), batchPapers)
	}
	close(stop)
	readers.Wait()
}

// sessionWorld is a conference whose users declare interests and keep
// no workpad, so their contexts do not depend on the concept map: a
// delta and a fresh build of one store give them equal contexts.
func sessionWorld(t *testing.T) (*social.Store, *Engine) {
	t.Helper()
	st, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, u := range []social.User{
		{ID: "u1", Name: "Uma", Interests: []string{"tensor decomposition", "graph mining"}},
		{ID: "u2", Name: "Ugo", Interests: []string{"graph mining"}},
		{ID: "u3", Name: "Ulla", Interests: []string{"tensor streams"}},
		{ID: "u4", Name: "Uri", Interests: []string{"query optimization"}},
		{ID: "u5", Name: "Uwe", Interests: []string{"tensor graph streams"}},
		{ID: "u6", Name: "Una", Interests: []string{"query processing"}},
	} {
		if err := st.PutUser(u); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.PutConference(social.Conference{ID: "c1", Name: "Conf", Series: "conf", Year: 2013}))
	must(st.PutSession(social.Session{ID: "s1", ConferenceID: "c1", Title: "Graph mining", Track: "graphs"}))
	must(st.PutSession(social.Session{ID: "s2", ConferenceID: "c1", Title: "Query processing", Track: "databases"}))
	must(st.PutSession(social.Session{ID: "s3", ConferenceID: "c1", Title: "Systems", Track: "systems"}))
	must(st.PutPaper(social.Paper{ID: "p1", Title: "Graph mining at scale", Authors: []string{"u2", "u1"}, ConferenceID: "c1", SessionID: "s1"}))
	must(st.PutPaper(social.Paper{ID: "p2", Title: "Query optimization revisited", Authors: []string{"u4", "u6"}, ConferenceID: "c1", SessionID: "s2"}))
	must(st.Connect("u1", "u2"))
	must(st.Connect("u2", "u3"))
	must(st.Connect("u3", "u5"))
	must(st.Connect("u4", "u5"))
	must(st.Follow("u1", "u5"))
	must(st.Follow("u6", "u3"))
	must(st.CheckIn("s1", "u2"))
	must(st.CheckIn("s2", "u6"))
	eng, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return st, eng
}

// TestDeltaSharesOverlaysItDoesNotRepair: a batch that repairs no
// context, session or content row shares those overlays with the
// snapshot it folds into, the same maps, instead of copying them; one
// that repairs a context row copies the context overlay and leaves its
// parent's as it was.
func TestDeltaSharesOverlaysItDoesNotRepair(t *testing.T) {
	st, eng := sessionWorld(t)
	drain := collectEvents(st)
	same := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if err := st.PutUser(social.User{ID: "u7", Name: "Ugne", Interests: []string{"graph streams"}}); err != nil {
		t.Fatal(err)
	}
	repaired, err := (&Builder{Store: st}).ApplyDelta(eng, drain())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := repaired.ctx.over["u7"]; !ok || same(repaired.ctx.over, eng.ctx.over) {
		t.Fatalf("a new user's batch did not repair a copied context overlay")
	}
	if _, ok := eng.ctx.over["u7"]; ok {
		t.Fatalf("the repair wrote into the parent's context overlay")
	}
	if err := st.Follow("u1", "u7"); err != nil {
		t.Fatal(err)
	}
	followed, err := (&Builder{Store: st}).ApplyDelta(repaired, drain())
	if err != nil {
		t.Fatal(err)
	}
	if followed.deltaCount != repaired.deltaCount+1 {
		t.Fatalf("the follow batch folded %d deltas", followed.deltaCount-repaired.deltaCount)
	}
	if !same(followed.ctx.over, repaired.ctx.over) || !same(followed.sessions.over, repaired.sessions.over) ||
		!same(followed.content.over, repaired.content.over) {
		t.Fatalf("a follow, which repairs no context, session or content row, copied their overlays")
	}
}

// TestApplyDeltaRepairsSessionRuns: after a paper is published into a
// session, the folded snapshot's session suggestions and explained peer
// pages equal a fresh build's — the same sessions, peers, order,
// likely sessions and evidence kinds; scores bit-equal and evidence
// strengths to 1e-9 — and so does a new session's. Content similarity
// is the one strength left out: a delta repairs the content vectors of
// the new paper's authors only, so the other users' vectors keep the
// IDF of their last build.
func TestApplyDeltaRepairsSessionRuns(t *testing.T) {
	st, eng := sessionWorld(t)
	drain := collectEvents(st)
	if err := st.PutPaper(social.Paper{ID: "p9", Title: "Tensor decomposition of graph streams",
		Authors: []string{"u4"}, ConferenceID: "c1", SessionID: "s3"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSession(social.Session{ID: "s4", ConferenceID: "c1", Title: "Tensor streams", Track: "tensor"}); err != nil {
		t.Fatal(err)
	}
	delta, err := (&Builder{Store: st}).ApplyDelta(eng, drain())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	users := st.Users()
	moved := 0
	for _, u := range users {
		before, _ := eng.SuggestSessions(u, "c1", 4)
		got, err := delta.SuggestSessions(u, "c1", 4)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.SuggestSessions(u, "c1", 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SuggestSessions(%s): folded %+v, fresh %+v", u, got, want)
		}
		if !reflect.DeepEqual(before, want) {
			moved++
		}

		gotRecs, err := delta.RecommendPeers(u, 4)
		if err != nil {
			t.Fatal(err)
		}
		wantRecs, _ := fresh.RecommendPeers(u, 4)
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("RecommendPeers(%s): folded %d peers, fresh %d", u, len(gotRecs), len(wantRecs))
		}
		for i, w := range wantRecs {
			g := gotRecs[i]
			if g.UserID != w.UserID || g.Score != w.Score || !reflect.DeepEqual(g.LikelySessions, w.LikelySessions) || len(g.Evidences) != len(w.Evidences) {
				t.Fatalf("RecommendPeers(%s) rank %d: folded %+v, fresh %+v", u, i, g, w)
			}
			for j, we := range w.Evidences {
				if ge := g.Evidences[j]; ge.Kind != we.Kind || ge.Kind != EvContent && math.Abs(ge.Strength-we.Strength) > 1e-9 {
					t.Fatalf("RecommendPeers(%s) rank %d evidence %d: folded %+v, fresh %+v", u, i, j, ge, we)
				}
			}
			if slices.Contains(w.LikelySessions, "s3") || slices.Contains(w.LikelySessions, "s4") {
				moved++
			}
		}
	}
	if moved < 3 {
		t.Fatalf("the new paper and session moved only %d answers: the test exercises too little", moved)
	}
}

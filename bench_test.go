// Benchmarks: one per experiment E1-E12 of EXPERIMENTS.md (E7 was
// dropped) — the only timed copy of each; the tests named there assert
// its shape — plus the refresh, read-path, delta and quorum benchmarks.
// Run with:
//
//	go test -bench=. -benchmem
package hive_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hive"
	"hive/internal/align"
	"hive/internal/conceptmap"
	"hive/internal/core"
	"hive/internal/election"
	"hive/internal/graph"
	"hive/internal/metrics"
	"hive/internal/rdf"
	"hive/internal/server"
	"hive/internal/social"
	"hive/internal/summarize"
	"hive/internal/tensor"
	"hive/internal/textindex"
	"hive/internal/workload"
)

func benchClock() func() time.Time {
	t := time.Unix(1363000000, 0)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// Shared fixture: a 64-user platform with a refreshed engine, built once.
var (
	fixtureOnce sync.Once
	fixture     *hive.Platform
	fixtureEng  *core.Engine
	fixtureErr  error
)

func benchPlatform(b *testing.B) (*hive.Platform, *core.Engine) {
	b.Helper()
	fixtureOnce.Do(func() {
		p, err := hive.Open(hive.Options{Clock: benchClock()})
		if err != nil {
			fixtureErr = err
			return
		}
		ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
		if err := ds.Load(p.Store()); err != nil {
			fixtureErr = err
			return
		}
		if err := p.Refresh(); err != nil {
			fixtureErr = err
			return
		}
		eng, err := p.Engine()
		if err != nil {
			fixtureErr = err
			return
		}
		fixture, fixtureEng = p, eng
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixture, fixtureEng
}

// benchLiveIndex rebuilds the live (locked, map-based) text index over
// the fixture snapshot's documents: the reference arm of the
// frozen-vs-live benchmarks (the engine itself keeps only the frozen
// read view).
func benchLiveIndex(b *testing.B, eng *core.Engine) *textindex.Index {
	b.Helper()
	seg := eng.Segment()
	ix := textindex.NewIndex()
	for _, id := range seg.DocIDs() {
		text, err := seg.Text(id)
		if err != nil {
			b.Fatal(err)
		}
		ix.Add(id, text)
	}
	return ix
}

// BenchmarkE1_PlatformAPI measures end-to-end REST latency of the
// context-aware search endpoint (Figure 1's interactive surface).
func BenchmarkE1_PlatformAPI(b *testing.B) {
	p, _ := benchPlatform(b)
	ts := httptest.NewServer(server.New(p))
	defer ts.Close()
	uid := p.Users()[0]
	url := ts.URL + "/api/v1/search?q=graph+partitioning&limit=10&user=" + uid
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkE2_RelationshipDiscovery measures evidence discovery and
// explanation between random user pairs (Figure 2).
func BenchmarkE2_RelationshipDiscovery(b *testing.B) {
	p, eng := benchPlatform(b)
	ids := p.Users()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ids[rng.Intn(len(ids))]
		c := ids[rng.Intn(len(ids))]
		if a == c {
			continue
		}
		if _, err := eng.Explain(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_LayerAlignment measures multi-layer alignment plus
// integration of the context network (Figure 3).
func BenchmarkE3_LayerAlignment(b *testing.B) {
	_, eng := benchPlatform(b)
	layers := eng.Layers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.Integrate(layers, align.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_WorkpadContext measures context-conditioned resource
// recommendation (Figure 4); the "nocontext" sub-bench is the ablation.
func BenchmarkE4_WorkpadContext(b *testing.B) {
	p, eng := benchPlatform(b)
	uid := p.Users()[0]
	for _, arm := range []struct {
		name string
		ctx  bool
	}{{"context", true}, {"nocontext", false}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.RecommendResources(uid, 5, arm.ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_ServiceMatrix runs one pass over every Table 1 service.
func BenchmarkE5_ServiceMatrix(b *testing.B) {
	p, eng := benchPlatform(b)
	uid, other := p.Users()[0], p.Users()[1]
	conf := p.Store().Conferences()[0]
	doc := core.DocPaper + p.Store().Papers()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RecommendPeers(uid, 5); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Explain(uid, other); err != nil {
			b.Fatal(err)
		}
		eng.SearchWithContext(uid, "graph partitioning", 5)
		if _, err := eng.Preview(uid, doc, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.UpdateDigest(uid, 5); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SuggestSessions(uid, conf, 3); err != nil {
			b.Fatal(err)
		}
		eng.Communities()
	}
}

// BenchmarkE6_SCENT compares change-detection methods on a tensor stream:
// incremental sketches vs full re-sketch vs exact diff vs CP recompute.
func BenchmarkE6_SCENT(b *testing.B) {
	shape := []int{64, 64, 16}
	changeAt := map[int]bool{20: true}
	stream, deltas := tensor.SyntheticStreamWithDeltas(11, shape, 30, 2000, changeAt)
	sk, err := tensor.NewSketcher(64, 3, shape...)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sketch-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MonitorIncremental(sk, deltas, &tensor.Detector{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sketch-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MonitorSketched(sk, stream, &tensor.Detector{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-frobenius", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MonitorExact(stream, &tensor.Detector{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cp-als-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MonitorDecomposition(stream, 5, 10, &tensor.Detector{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8_RankedPaths compares best-first ranked path search against
// exhaustive enumeration on a weighted RDF graph.
func BenchmarkE8_RankedPaths(b *testing.B) {
	b0 := rdf.NewBuilder()
	rng := rand.New(rand.NewSource(13))
	const n = 60
	for i := 0; i < 8*n; i++ {
		s := fmt.Sprintf("n%d", rng.Intn(n))
		o := fmt.Sprintf("n%d", rng.Intn(n))
		if s == o {
			continue
		}
		_ = b0.Add(rdf.Triple{Subject: s, Predicate: "rel", Object: o, Weight: 0.1 + 0.9*rng.Float64()})
	}
	st := b0.Freeze()
	b.Run("ranked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.RankedPaths("n0", fmt.Sprintf("n%d", n-1), 5, rdf.PathOptions{MaxLength: 4})
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.AllPathsNaive("n0", fmt.Sprintf("n%d", n-1), 5, 4, false)
		}
	})
}

// BenchmarkE9_AlphaSum compares greedy vs exhaustive summarization.
func BenchmarkE9_AlphaSum(b *testing.B) {
	p, _ := benchPlatform(b)
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	affil := map[string]string{}
	for _, u := range ds.Users {
		affil[u.ID] = u.Affiliation
	}
	tab := &summarize.Table{Columns: []string{"verb", "topic", "affil"}}
	for _, ev := range p.Store().EventsSince(0, 0) {
		topic := "other"
		if t, ok := ds.TopicOfUser[ev.Actor]; ok {
			topic = workload.Topics[t].Name
		}
		tab.Rows = append(tab.Rows, []string{ev.Verb, topic, affil[ev.Actor]})
	}
	verbs, err := summarize.NewHierarchy(map[string]string{
		"question": "discussion", "answer": "discussion", "comment": "discussion",
		"checkin": "presence", "connect": "networking", "follow": "networking",
		"upload": "content", "browse": "content",
		"discussion": summarize.Root, "presence": summarize.Root,
		"networking": summarize.Root, "content": summarize.Root,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := summarize.NewSummarizer(tab.Columns, map[string]*summarize.Hierarchy{"verb": verbs})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Greedy(tab, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Optimal(tab, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10_CollabFilter compares user-based CF against popularity.
func BenchmarkE10_CollabFilter(b *testing.B) {
	p, eng := benchPlatform(b)
	ids := p.Users()
	b.Run("cf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.RecommendByCF(ids[i%len(ids)], 5)
		}
	})
	b.Run("popularity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.RecommendByPopularity(ids[i%len(ids)], 5)
		}
	})
}

// BenchmarkE11_ConceptBootstrap measures concept-map bootstrapping over a
// paper corpus.
func BenchmarkE11_ConceptBootstrap(b *testing.B) {
	ds := workload.Generate(workload.Config{Seed: 21, Users: 40})
	var docs []string
	for _, p := range ds.Papers {
		docs = append(docs, p.Title+". "+p.Abstract)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conceptmap.Bootstrap(docs, conceptmap.BootstrapOptions{MaxConcepts: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelRebuild measures a full engine snapshot rebuild at
// increasing builder worker counts: the speedup from fanning the layer
// derivations (connections, coauthor, attendance, QA), the text index,
// the concept map and the knowledge base out across goroutines.
func BenchmarkParallelRebuild(b *testing.B) {
	p, err := hive.Open(hive.Options{Clock: benchClock()})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	if err := ds.Load(p.Store()); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			builder := &core.Builder{Store: p.Store(), Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildScaling measures one full snapshot build on one builder
// worker as the user count doubles, over hiveload's dataset shape (E20):
// the build is most of a node's start-up and all of every compaction, so
// it must grow with the data, not with its square.
func BenchmarkBuildScaling(b *testing.B) {
	for _, users := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			st, err := social.Open("", social.Clock(benchClock()))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			ds := workload.Generate(workload.Config{Seed: 42, Users: users,
				Series: 2, YearsPerSeries: 2, SessionsPerConf: 8, PapersPerSess: 4})
			if err := ds.Load(st); err != nil {
				b.Fatal(err)
			}
			builder := &core.Builder{Store: st, Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebuildUnderLoad measures read latency on the serving
// snapshot while a background goroutine rebuilds and swaps snapshots
// continuously — the zero-downtime refresh path. The read numbers show
// what queries cost during a refresh; compare with E2 at steady state.
func BenchmarkRebuildUnderLoad(b *testing.B) {
	p, err := hive.Open(hive.Options{Clock: benchClock()})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	if err := ds.Load(p.Store()); err != nil {
		b.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		b.Fatal(err)
	}
	ids := p.Users()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Dirty the snapshot so every refresh is a real rebuild.
			_ = p.RegisterUser(hive.User{ID: "churn", Name: fmt.Sprintf("c%d", i)})
			_ = p.Refresh()
		}
	}()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := p.Snapshot()
		if eng == nil {
			b.Fatal("nil snapshot under load")
		}
		a := ids[rng.Intn(len(ids))]
		c := ids[rng.Intn(len(ids))]
		if a == c {
			continue
		}
		if _, err := eng.Explain(a, c); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkSearch compares BM25 keyword search on the live (locked,
// map-based) index against the frozen read snapshot. The frozen path
// must be no slower ("no regression on Search").
func BenchmarkSearch(b *testing.B) {
	_, eng := benchPlatform(b)
	live, frozen := benchLiveIndex(b, eng), eng.Frozen()
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			live.Search("graph partitioning streams", 10)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frozen.Search("graph partitioning streams", 10)
		}
	})
}

// BenchmarkSearchVector compares context-vector search: the live path
// recomputes every matched document's norm by scanning the whole
// postings map; the frozen path reads precomputed norms and IDF from
// contiguous postings (the PR-3 tentpole's headline ≥10x win).
func BenchmarkSearchVector(b *testing.B) {
	p, eng := benchPlatform(b)
	ctx := eng.ContextVector(p.Users()[0])
	live, frozen := benchLiveIndex(b, eng), eng.Frozen()
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			live.SearchVector(ctx, 10)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frozen.SearchVector(ctx, 10)
		}
	})
	// The serving path: per-user context vectors are compiled against
	// the frozen index at build time, so a request is pure postings
	// arithmetic (no term extraction, sorting or hash lookups).
	b.Run("frozen-compiled", func(b *testing.B) {
		cq := frozen.Compile(ctx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frozen.SearchCompiled(cq, 10)
		}
	})
}

// BenchmarkInstrumentedSearch measures what the PR-10 observability
// layer costs on the frozen search path: "bare" is the uninstrumented
// call, "observed" adds exactly what the serving path now pays per
// request — a timed histogram observation (one bucket add, one count
// add, one CAS float fold) plus a labeled counter increment. The
// acceptance bar is <5%% overhead on the frozen path.
func BenchmarkInstrumentedSearch(b *testing.B) {
	_, eng := benchPlatform(b)
	frozen := eng.Frozen()
	reg := metrics.New()
	h := reg.Histogram(metrics.SearchSeconds, "bench", nil)
	c := reg.CounterVec(metrics.HTTPRequestsTotal, "bench", "route", "method", "class").
		With("/api/v1/search", "GET", "2xx")
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frozen.Search("graph partitioning streams", 10)
		}
	})
	b.Run("observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			frozen.Search("graph partitioning streams", 10)
			h.ObserveSince(start)
			c.Inc()
		}
	})
}

// BenchmarkTFIDFVector compares per-document vector materialization:
// O(total postings) on the live index vs O(terms-in-doc) through the
// frozen forward index.
func BenchmarkTFIDFVector(b *testing.B) {
	p, eng := benchPlatform(b)
	papers := p.Store().Papers()
	live, frozen := benchLiveIndex(b, eng), eng.Frozen()
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := live.TFIDFVector(core.DocPaper + papers[i%len(papers)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := frozen.TFIDFVector(core.DocPaper + papers[i%len(papers)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecommendPeers measures peer recommendation: "ppr-per-call"
// is the old cost of running a fresh power iteration on every request;
// "memoized" is the serving path with the per-snapshot PageRank memo
// (explanations still computed per call).
func BenchmarkRecommendPeers(b *testing.B) {
	p, eng := benchPlatform(b)
	ids := p.Users()
	b.Run("ppr-per-call", func(b *testing.B) {
		pg := eng.PeerGraph()
		for i := 0; i < b.N; i++ {
			me := pg.Lookup(ids[i%len(ids)])
			pg.PersonalizedPageRank(map[graph.NodeID]float64{me: 1}, graph.PageRankOptions{})
		}
	})
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RecommendPeers(ids[i%len(ids)], 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecommendResources measures resource recommendation on the
// frozen read path, with and without the workpad context.
func BenchmarkRecommendResources(b *testing.B) {
	p, eng := benchPlatform(b)
	uid := p.Users()[0]
	b.Run("context", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RecommendResources(uid, 5, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nocontext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RecommendResources(uid, 5, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12_Snippets measures context-aware snippet extraction.
func BenchmarkE12_Snippets(b *testing.B) {
	p, eng := benchPlatform(b)
	uid := p.Users()[0]
	papers := p.Store().Papers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := core.DocPaper + papers[i%len(papers)]
		if _, err := eng.Preview(uid, doc, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaVsRebuild is the PR-4 headline: folding a single
// mutation's change events into the serving snapshot with ApplyDelta
// (structural sharing + overlay segment) versus the full rebuild that
// used to be the only repair. The acceptance bar is delta ≥ 50x faster
// at the 64-user fixture.
func BenchmarkDeltaVsRebuild(b *testing.B) {
	st, err := social.Open("", social.Clock(benchClock()))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	if err := ds.Load(st); err != nil {
		b.Fatal(err)
	}
	var (
		mu  sync.Mutex
		evs []social.ChangeEvent
	)
	st.OnChange(func(batch []social.ChangeEvent) {
		mu.Lock()
		evs = append(evs[:0], batch...)
		mu.Unlock()
	})
	builder := &core.Builder{Store: st}
	eng, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	author := st.Users()[0]
	if err := st.PutPaper(social.Paper{
		ID: "bench-delta", Title: "Write visibility through overlay segments",
		Abstract: "One mutation, one delta, zero rebuild.", Authors: []string{author},
	}); err != nil {
		b.Fatal(err)
	}
	mu.Lock()
	batch := append([]social.ChangeEvent(nil), evs...)
	mu.Unlock()
	if len(batch) == 0 {
		b.Fatal("no change events captured")
	}

	b.Run("delta-apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := builder.ApplyDelta(eng, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSegmentedSearch measures the merge-on-read cost: BM25 search
// through a pristine segmented view (delegates to the frozen base) and
// through a view carrying a small overlay (merged statistics computed
// per query).
func BenchmarkSegmentedSearch(b *testing.B) {
	_, eng := benchPlatform(b)
	pristine := eng.Segment()
	overlaid := pristine.WithDocs(map[string]string{
		"paper/seg-1": "graph partitioning with overlay segments",
		"paper/seg-2": "streaming tensor sketches for social networks",
	})
	b.Run("pristine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pristine.Search("graph partitioning streams", 10)
		}
	})
	b.Run("overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			overlaid.Search("graph partitioning streams", 10)
		}
	})
}

// BenchmarkQuorumWrite prices the synchronous durability mode in
// isolation: a leader platform with write quorum k whose followers are
// goroutines acking every sequence the moment it appears, so the
// measured cost is the quorum machinery itself (ack bookkeeping,
// commit-index persistence, the waitQuorum wakeup) with no network in
// the loop (E17; cmd/hived's TestSmokeCluster drives the same path with
// real follower processes).
func BenchmarkQuorumWrite(b *testing.B) {
	for _, k := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			el := election.NewManual()
			self := "http://bench-leader.invalid"
			followers := []string{"http://bench-f1.invalid", "http://bench-f2.invalid"}
			el.Set(election.State{Role: election.Leader, Epoch: 1, Leader: self})
			p, err := hive.Open(hive.Options{
				Dir: b.TempDir(),
				Cluster: &hive.ClusterConfig{
					SelfURL: self, Peers: followers, Election: el, QuorumWrites: k,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			for p.State().Role != "leader" {
				time.Sleep(time.Millisecond)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for _, f := range followers {
				wg.Add(1)
				go func(f string) {
					defer wg.Done()
					var last uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						if seq := p.Store().ChangeSeq(); seq > last {
							last = seq
							p.RecordFollowerAck(f, seq, 1)
							continue
						}
						// Poll, don't spin: a busy loop starves the writer
						// goroutine on small machines and the measured
						// latency becomes the scheduler's, not the quorum's.
						time.Sleep(20 * time.Microsecond)
					}
				}(f)
			}
			defer func() { close(stop); wg.Wait() }()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.RegisterUser(hive.User{
					ID: fmt.Sprintf("bq-%d-%d", k, i), Name: "Q"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

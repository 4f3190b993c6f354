package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hive/internal/align"
	"hive/internal/biblio"
	"hive/internal/community"
	"hive/internal/graph"
	"hive/internal/social"
)

// Builder assembles an immutable Engine snapshot from a social store,
// fanning the independent derivation stages out across a bounded worker
// pool. The store is only read during Build, so a Builder can run in the
// background while an older snapshot keeps serving queries; the caller
// publishes the result with an atomic pointer swap (see hive.Platform).
type Builder struct {
	// Store is the social store to derive the snapshot from.
	Store *social.Store
	// Workers bounds the number of concurrently running derivation
	// tasks. Zero or negative means GOMAXPROCS.
	Workers int
}

// derivation stages that are independent of each other once the paper
// corpus and user set are loaded. Each writes a disjoint set of Engine
// fields, so they are safe to run concurrently and join before read.
type buildTask struct {
	name string
	run  func(e *Engine) error
}

var buildTasks = []buildTask{
	{"textindex", func(e *Engine) error { return e.buildTextIndex() }},
	{"conceptmap", func(e *Engine) error { e.buildConceptMap(); return nil }},
	{LayerConnections, func(e *Engine) error { e.connLayer = e.deriveConnectionsLayer(); return nil }},
	{LayerCoauthor, func(e *Engine) error {
		// The citation graph has no stage of its own: the stage names
		// are the label values of hive_build_stage_seconds.
		e.coauthLayer = e.deriveCoauthorLayer()
		e.citationNet = biblio.CitationGraph(e.papers)
		return nil
	}},
	{LayerAttendance, func(e *Engine) error { e.attendLayer = e.deriveAttendanceLayer(); return nil }},
	{LayerQA, func(e *Engine) error { e.qaLayer = e.deriveQALayer(); return nil }},
	{"knowledgebase", func(e *Engine) error { e.exportKnowledgeBase(); return nil }},
}

// finishTasks is the second fan-out wave: snapshot-resident read-path
// derivations that consume phase-1 outputs (the frozen text index, the
// concept map, the evidence layers). After these and the table stages
// join, every serving query is a lookup — search, context, evidence and
// recommendation read precomputed structures instead of re-deriving
// them per request.
var finishTasks = []buildTask{
	{"integrate", func(e *Engine) error {
		// Integration needs all four layers; communities need the
		// integrated peer graph.
		if err := e.integrateLayers(); err != nil {
			return err
		}
		e.communities = community.Detect(e.peerGraph, 1)
		return nil
	}},
	{"interactions", func(e *Engine) error { e.buildInteractionTables(); return nil }},
}

// tableTasks are the per-user table stages. Each shards its user loop
// across the full worker budget internally (forUsersParallel), so they
// run one at a time — never nested inside the task fan-out — to keep
// total rebuild parallelism within Builder.Workers (background rebuilds
// must not steal more CPU from the serving path than the operator
// budgeted with -workers).
var tableTasks = []buildTask{
	{"contextvectors", func(e *Engine) error { e.buildContextVectors(); return nil }},
	{"usercontent", func(e *Engine) error { e.buildUserContentVectors(); return nil }},
}

// Build derives the four context-network layers, the text index, the
// concept map and the RDF knowledge base concurrently, then integrates
// the layers and detects communities. The returned Engine is complete
// and immutable: no goroutine mutates it after Build returns.
func (b *Builder) Build() (*Engine, error) {
	start := time.Now()
	st := b.Store
	e := &Engine{store: st, buildWorkers: b.workers()}

	// Shared inputs, gathered once up front: several stages iterate the
	// paper corpus and the user set.
	for _, id := range st.Papers() {
		p, err := st.Paper(id)
		if err != nil {
			return nil, err
		}
		e.papers = append(e.papers, p)
	}
	e.users = st.Users()

	for _, wave := range [][]buildTask{buildTasks, finishTasks} {
		durs, err := runLimited(wave, e, b.workers())
		if err != nil {
			return nil, err
		}
		for i, t := range wave {
			e.buildStages = append(e.buildStages, BuildStage{Name: t.name, Dur: durs[i]})
		}
	}
	for _, t := range tableTasks {
		d, err := runTask(t, e)
		if err != nil {
			return nil, err
		}
		e.buildStages = append(e.buildStages, BuildStage{Name: t.name, Dur: d})
	}

	// Lazily-filled per-snapshot PageRank memo (bounded; see RecommendPeers).
	e.pprMemo = make(map[string][]float64)

	e.builtAt = time.Now()
	e.buildDur = e.builtAt.Sub(start)
	return e, nil
}

func (b *Builder) workers() int {
	if b.Workers > 0 {
		return b.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runLimited runs the tasks across at most workers goroutines and
// returns each task's duration, by position, and the first error
// (errgroup-style fan-out, stdlib only). A panicking task is converted
// into an error so a background rebuild can never take the serving
// process down.
func runLimited(tasks []buildTask, e *Engine, workers int) ([]time.Duration, error) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	durs := make([]time.Duration, len(tasks))
	ch := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				d, err := runTask(tasks[i], e)
				durs[i] = d
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for i := range tasks {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return durs, firstErr
}

// forUsersParallel runs fn(i, user) for every user across the builder's
// worker count (see forEachParallel).
func (e *Engine) forUsersParallel(fn func(i int, u string)) {
	e.forEachParallel(len(e.users), func(i int) { fn(i, e.users[i]) })
}

// forEachParallel runs fn(i) for every i in [0, n) across the builder's
// worker count. Indices are disjoint, so fn may write into index i of a
// preallocated slice without locking. A panic in any worker is re-raised
// on the calling goroutine, where runTask's recover converts it into a
// build error (rebuilds must never take the serving process down).
func (e *Engine) forEachParallel(n int, fn func(i int)) {
	workers := e.buildWorkers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runTask runs one stage and reports how long it took.
func runTask(t buildTask, e *Engine) (d time.Duration, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: build stage %s panicked: %v", t.name, r)
		}
		d = time.Since(start)
	}()
	if err := t.run(e); err != nil {
		return 0, fmt.Errorf("core: build stage %s: %w", t.name, err)
	}
	return 0, nil
}

// deriveConnectionsLayer builds the explicit-connection/follow layer.
func (e *Engine) deriveConnectionsLayer() *graph.Graph {
	conn := graph.NewBuilder()
	for _, u := range e.users {
		conn.EnsureNode(u, "user")
	}
	for _, u := range e.users {
		for _, o := range e.store.ConnectionsOf(u) {
			_ = conn.AddEdge(conn.Lookup(u), conn.EnsureNode(o, "user"), "connected", 1)
		}
		for _, o := range e.store.Following(u) {
			_ = conn.AddEdge(conn.Lookup(u), conn.EnsureNode(o, "user"), "follows", 0.5)
		}
	}
	return conn.Freeze()
}

// deriveCoauthorLayer builds the co-authorship layer: every user, then
// any other author in paper order, and an undirected edge per pair of
// co-authors of a paper whose weight counts their shared papers (so
// frequent co-authors bind strongly — the §1.1 evidence).
func (e *Engine) deriveCoauthorLayer() *graph.Graph {
	coauth := graph.NewBuilder()
	for _, u := range e.users {
		coauth.EnsureNode(u, "user")
	}
	for _, p := range e.papers {
		ids := make([]graph.NodeID, len(p.Authors))
		for i, a := range p.Authors {
			ids[i] = coauth.EnsureNode(a, "user")
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				_ = coauth.AddUndirected(ids[i], ids[j], biblio.EdgeCoauthor, 1)
			}
		}
	}
	return coauth.Freeze()
}

// deriveAttendanceLayer links users who checked into the same session.
func (e *Engine) deriveAttendanceLayer() *graph.Graph {
	attend := graph.NewBuilder()
	for _, u := range e.users {
		attend.EnsureNode(u, "user")
	}
	for _, conf := range e.store.Conferences() {
		for _, sess := range e.store.SessionsOf(conf) {
			att := e.store.Attendees(sess)
			for i := 0; i < len(att); i++ {
				for j := i + 1; j < len(att); j++ {
					a := attend.EnsureNode(att[i], "user")
					b := attend.EnsureNode(att[j], "user")
					_ = attend.AddUndirected(a, b, "co-attends", 1)
				}
			}
		}
	}
	return attend.Freeze()
}

// deriveQALayer links question askers with answerers and entity owners.
func (e *Engine) deriveQALayer() *graph.Graph {
	qa := graph.NewBuilder()
	for _, u := range e.users {
		qa.EnsureNode(u, "user")
	}
	for _, u := range e.users {
		for _, qID := range e.store.QuestionsBy(u) {
			q, err := e.store.Question(qID)
			if err != nil {
				continue
			}
			// Question author relates to the target's owners/authors.
			for _, owner := range e.ownersOf(q.Target) {
				if owner == u {
					continue
				}
				_ = qa.AddUndirected(qa.Lookup(u), qa.EnsureNode(owner, "user"), "qa", 1)
			}
			// Answer authors relate back to the asker.
			for _, aID := range e.store.AnswersTo(qID) {
				a, err := e.store.Answer(aID)
				if err != nil || a.Author == u {
					continue
				}
				_ = qa.AddUndirected(qa.Lookup(u), qa.EnsureNode(a.Author, "user"), "qa", 1)
			}
		}
	}
	return qa.Freeze()
}

// integrateLayers aligns and merges the four evidence layers into the
// integrated context network (paper §2.2). All layers share user IDs as
// node keys, so alignment resolves them exactly; the machinery still
// scores and merges them as in the general imprecise case.
func (e *Engine) integrateLayers() error {
	e.layers = []*align.Layer{
		{Name: LayerConnections, Trust: 1.0, G: e.connLayer},
		{Name: LayerCoauthor, Trust: 0.9, G: e.coauthLayer},
		{Name: LayerAttendance, Trust: 0.6, G: e.attendLayer},
		{Name: LayerQA, Trust: 0.7, G: e.qaLayer},
	}
	in, err := align.Integrate(e.layers, align.Options{})
	if err != nil {
		return err
	}
	e.integrated = in
	e.peerGraph = in.G
	return nil
}

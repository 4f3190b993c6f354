package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/biblio"
	"hive/internal/core"
	"hive/internal/graph"
	"hive/internal/journal"
	"hive/internal/kvstore"
	"hive/internal/server"
	"hive/internal/social"
	"hive/internal/summarize"
	"hive/internal/textindex"
	"hive/internal/workload"
)

// The ladder replays one probe list in-process, entering the code at
// successive depths: L0 the SDK against an httptest server, L1 the
// server's ServeHTTP with a recorder, L2 the platform method, L3 the
// engine or store method, L4 the leaf package. A layer's self time is
// its rung minus the rung below. Everything runs on one goroutine with
// no background compaction, so byte and call counts repeat exactly.
//
// Spans are recorded from here, around the calls into each layer; spans
// inside the program are a later change.

// span is one timed call.
type span struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`    // index of the probe op; spans of one op share it
	Name     string `json:"name"`     // "<layer>.<op>"
	StartNS  int64  `json:"start_ns"` // since the ladder began
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent"` // name of the rung above; "" at L0
}

// ladderCounts is how many probes of each class the ladder replays:
// enough for a median, few enough that the slow classes fit the run.
var ladderCounts = []struct {
	Kind opKind
	N    int
}{
	{opSearch, 48}, {opCtxSearch, 48}, {opFeed, 32}, {opPeerRecs, 8}, {opRelationship, 16},
	{opResourceRecs, 16}, {opSessions, 16}, {opDigest, 16}, {opComment, 48},
}

// overlayProbeDocs is the overlay size textindex.segmented_search.us is
// measured at.
const overlayProbeDocs = 128

// backend is an in-process platform of one of the two shapes, fronted
// by the real server handler.
type backend struct {
	p   *hive.Platform // unsharded shape
	sh  *hive.Sharded  // sharded shape
	srv *server.Server
	// buildS is the wall time of the first full build over the dataset.
	buildS float64
}

// openBackend opens, loads and builds a backend. dir == "" is in-memory.
func openBackend(shards int, dir string, ds *workload.Dataset) (*backend, error) {
	b := &backend{}
	var err error
	if shards > 1 {
		if b.sh, err = hive.OpenSharded(shards, hive.Options{Dir: dir}); err != nil {
			return nil, err
		}
		if err = b.sh.Batched(func() error { return ds.LoadRouted(b.sh) }); err != nil {
			b.close()
			return nil, err
		}
		start := time.Now()
		if err = b.sh.Refresh(); err != nil {
			b.close()
			return nil, err
		}
		b.buildS = time.Since(start).Seconds()
		b.srv = server.NewSharded(b.sh, server.Config{})
		return b, nil
	}
	if b.p, err = hive.Open(hive.Options{Dir: dir}); err != nil {
		return nil, err
	}
	if err = b.p.Store().Batched(func() error { return ds.Load(b.p.Store()) }); err != nil {
		b.close()
		return nil, err
	}
	start := time.Now()
	if err = b.p.Refresh(); err != nil {
		b.close()
		return nil, err
	}
	b.buildS = time.Since(start).Seconds()
	b.srv = server.NewWith(b.p, server.Config{})
	return b, nil
}

func (b *backend) close() {
	if b.sh != nil {
		b.sh.Close()
	}
	if b.p != nil {
		b.p.Close()
	}
}

// platforms lists the shard platforms (one on the unsharded shape).
func (b *backend) platforms() []*hive.Platform {
	if b.sh != nil {
		return b.sh.Shards()
	}
	return []*hive.Platform{b.p}
}

// home is the platform holding the user's partition.
func (b *backend) home(user string) *hive.Platform {
	if b.sh != nil {
		return b.sh.Shard(b.sh.ShardOf(user))
	}
	return b.p
}

func (b *backend) search(ctx context.Context, q, user string, k int) ([]hive.SearchResult, error) {
	switch {
	case b.sh != nil && user != "":
		return b.sh.SearchWithContext(ctx, user, q, k)
	case b.sh != nil:
		return b.sh.Search(ctx, q, k)
	case user != "":
		return b.p.SearchWithContext(user, q, k)
	}
	return b.p.Search(q, k)
}

func (b *backend) feed(user string, limit int) []hive.Event {
	if b.sh != nil {
		return b.sh.Feed(user, limit)
	}
	return b.p.Feed(user, limit)
}

func (b *backend) recommendPeers(user string, k int) ([]hive.PeerRecommendation, error) {
	if b.sh != nil {
		return b.sh.RecommendPeers(user, k)
	}
	return b.p.RecommendPeers(user, k)
}

func (b *backend) postComment(c hive.Comment) error {
	if b.sh != nil {
		return b.sh.PostComment(c)
	}
	return b.p.PostComment(c)
}

func (b *backend) deltasApplied() uint64 {
	var n uint64
	for _, p := range b.platforms() {
		n += p.DeltasApplied()
	}
	return n
}

// ladder holds the in-process backends of a traced run and what the
// rungs measured.
type ladder struct {
	spec     workloadSpec
	ds       *workload.Dataset
	be       *backend // the workload's shape: the ladder's subject
	other    *backend // the other shape: parity reference only
	dir      string   // scratch directory for durable state, removed on close
	t0       time.Time
	spans    []span
	durs     map[string][]float64 // span name -> durations, µs
	respSize []float64            // gzip'd response bytes of the search probes at L1
	// explainShare is, per peer-recs probe, the time Explain takes over
	// the recommended peers as a share of the whole call.
	explainShare []float64
	// Exact counts, taken on one goroutine with nothing in the background.
	deltasPerWrite, walBytesPerWrite, journalBytesPerWrite float64
}

// openLadder prepares a traced run and builds both in-process shapes
// for the parity check: search answers must agree with both.
func openLadder(root string, spec workloadSpec, ds *workload.Dataset) (*ladder, error) {
	l := &ladder{spec: spec, ds: ds, durs: map[string][]float64{}}
	var err error
	if l.dir, err = os.MkdirTemp(filepath.Join(root, buildDir, "run"), "ladder-"); err != nil {
		return nil, err
	}
	otherShards := 4
	if spec.Shards > 1 {
		otherShards = 1
	}
	if err = l.openSubject("parity"); err == nil {
		l.other, err = openBackend(otherShards, "", ds)
	}
	if err != nil {
		l.close()
		return nil, fmt.Errorf("parity backends: %w", err)
	}
	return l, nil
}

// openSubject builds the backend of the workload's own shape, durable
// when the workload's node is. name keeps the data directories of the
// parity pass and the ladder pass apart.
func (l *ladder) openSubject(name string) (err error) {
	dir := ""
	if l.spec.Durable {
		dir = filepath.Join(l.dir, name)
	}
	l.be, err = openBackend(max(l.spec.Shards, 1), dir, l.ds)
	return err
}

// closeBackends frees both engines. They are dropped while the real
// process is measured, so that the generator's heap and collector are
// the same in traced and untraced runs.
func (l *ladder) closeBackends() {
	if l.be != nil {
		l.be.close()
		l.be = nil
	}
	if l.other != nil {
		l.other.close()
		l.other = nil
	}
}

func (l *ladder) close() {
	l.closeBackends()
	os.RemoveAll(l.dir)
}

// record files one call as a span and its duration, in µs, under name.
func (l *ladder) record(trace int, name, parent string, start, end time.Time) float64 {
	l.spans = append(l.spans, span{
		Workload: l.spec.Name, Trace: trace, Name: name, Parent: parent,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(),
	})
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	l.durs[name] = append(l.durs[name], us)
	return us
}

// timed runs fn as one span.
func (l *ladder) timed(trace int, name, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	return l.record(trace, name, parent, start, time.Now())
}

// slowest runs fn once per item and keeps only the slowest call as the
// span: a scatter-gather read waits for its slowest shard.
func slowest[T any](l *ladder, trace int, name, parent string, items []T, fn func(T)) {
	var start, end time.Time
	for _, it := range items {
		s := time.Now()
		fn(it)
		if e := time.Now(); e.Sub(s) > end.Sub(start) {
			start, end = s, e
		}
	}
	l.record(trace, name, parent, start, end)
}

// serve sends one request straight into the server handler, the way the
// SDK's transport would have framed it.
func (l *ladder) serve(method, path string, q url.Values, body any) (*httptest.ResponseRecorder, error) {
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Accept-Encoding", "gzip")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rr := httptest.NewRecorder()
	l.be.srv.ServeHTTP(rr, req)
	if rr.Code < 200 || rr.Code > 299 {
		return rr, fmt.Errorf("ladder: %s %s: HTTP %d: %s", method, path, rr.Code, rr.Body.String())
	}
	return rr, nil
}

// run replays the probe list. Errors abort the traced run: a ladder
// that cannot reach a layer measures nothing.
func (l *ladder) run(ctx context.Context, seed int64) (err error) {
	if err := l.openSubject("ladder"); err != nil {
		return fmt.Errorf("ladder backend: %w", err)
	}
	ts := httptest.NewServer(l.be.srv)
	defer ts.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := client.New(ts.URL, client.WithHTTPClient(hc))
	if _, err := c.Healthz(ctx); err != nil {
		return err
	}

	// Standalone leaves: a store with nobody subscribed, a kv store and
	// a journal, durable whenever the workload's own node is.
	storeDir, leafDir := "", filepath.Join(l.dir, "leaves")
	if l.spec.Durable {
		storeDir = filepath.Join(l.dir, "store")
	}
	st, err := social.Open(storeDir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Batched(func() error { return l.ds.Load(st) }); err != nil {
		return err
	}
	kv, err := kvstore.Open(filepath.Join(leafDir, "kv"))
	if err != nil {
		return err
	}
	defer kv.Close()
	jn, err := journal.Open(filepath.Join(leafDir, "journal"), journal.Options{})
	if err != nil {
		return err
	}
	defer jn.Close()

	// A 128-document overlay over the first shard's frozen base.
	eng0 := l.be.platforms()[0].Snapshot()
	overlay := map[string]string{}
	g := newGenerator(seed+5, l.ds, "o")
	for i := 0; i < overlayProbeDocs; i++ {
		u := g.user()
		overlay[fmt.Sprintf("question/ov%03d", i)] = g.body(u, fmt.Sprintf("ovtok%03d", i))
	}
	seg := textindex.NewSegmented(eng0.Frozen()).WithDocs(overlay)

	digestHierarchy, err := summarize.NewHierarchy(map[string]string{
		"paper": "content", "presentation": "content", "question": "content",
		"session": "venue", "conference": "venue",
		"user": "people", "other": summarize.Root,
		"content": summarize.Root, "venue": summarize.Root, "people": summarize.Root,
	})
	if err != nil {
		return err
	}

	// Capture the change events of each platform write so the fold can be
	// replayed on its own.
	type captured struct {
		shard int
		evs   []social.ChangeEvent
	}
	var lastWrite *captured
	for i, p := range l.be.platforms() {
		p.Store().OnChange(func(evs []social.ChangeEvent) {
			lastWrite = &captured{shard: i, evs: append([]social.ChangeEvent(nil), evs...)}
		})
	}

	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	probe := ladderProbes(seed, l.ds)

	// Warm pass at L0, untimed: memo tables and connection set-up are not
	// what the rungs compare.
	for i, o := range probe {
		if o.Kind == opComment {
			o.ID = fmt.Sprintf("lw%04d", i)
		}
		fail((&target{c: c, ctx: ctx}).do(o))
	}
	if err != nil {
		return fmt.Errorf("ladder warm pass: %w", err)
	}

	var walBefore, jnBefore int64
	if storeDir != "" {
		walBefore, jnBefore = fileSize(filepath.Join(storeDir, "wal.log")), dirSize(filepath.Join(storeDir, "journal"))
	}
	deltasBefore := l.be.deltasApplied()
	mutates := 0

	l.t0 = time.Now()
	for i, o := range probe {
		engs := func() []*core.Engine {
			var out []*core.Engine
			for _, p := range l.be.platforms() {
				out = append(out, p.Snapshot())
			}
			return out
		}
		home := func(u string) *core.Engine { return l.be.home(u).Snapshot() }
		cls := o.Kind.String()
		switch o.Kind {
		case opSearch:
			l.timed(i, "client.search", "", func() { _, e := c.Search(ctx, o.Query, "", "", searchK); fail(e) })
			l.timed(i, "server.search", "client.search", func() {
				rr, e := l.serve(http.MethodGet, "/api/v1/search", url.Values{"q": {o.Query}, "limit": {strconv.Itoa(searchK)}}, nil)
				fail(e)
				l.respSize = append(l.respSize, float64(rr.Body.Len()))
			})
			l.timed(i, "hive.search", "server.search", func() { _, e := l.be.search(ctx, o.Query, "", searchK); fail(e) })
			slowest(l, i, "core.search", "hive.search", engs(), func(e *core.Engine) { e.Search(o.Query, searchK) })
			slowest(l, i, "textindex.frozen_search", "core.search", engs(), func(e *core.Engine) { e.Frozen().Search(o.Query, searchK) })
			l.timed(i, "textindex.segmented_search", "", func() { seg.Search(o.Query, searchK) })
			if cv := home(o.User).ContextVector(o.User); len(cv) > 0 {
				cq := eng0.Frozen().Compile(cv)
				l.timed(i, "textindex.search_compiled", "", func() { eng0.Frozen().SearchCompiled(cq, searchK) })
			}
		case opCtxSearch:
			l.timed(i, "client.ctx_search", "", func() { _, e := c.Search(ctx, o.Query, o.User, "", searchK); fail(e) })
			l.timed(i, "core.ctx_search", "client.ctx_search", func() { home(o.User).SearchWithContext(o.User, o.Query, searchK) })
		case opFeed:
			l.timed(i, "client.feed", "", func() { _, e := c.Feed(ctx, o.User, "", feedLimit); fail(e) })
			l.timed(i, "server.feed", "client.feed", func() {
				_, e := l.serve(http.MethodGet, "/api/v1/users/"+o.User+"/feed", url.Values{"limit": {strconv.Itoa(feedLimit)}}, nil)
				fail(e)
			})
			l.timed(i, "hive.feed", "server.feed", func() { l.be.feed(o.User, feedLimit) })
			slowest(l, i, "social.feed", "hive.feed", l.be.platforms(), func(p *hive.Platform) { p.Store().Feed(o.User, feedLimit) })
		case opPeerRecs:
			l.timed(i, "client.peer_recs", "", func() { _, e := c.PeerRecommendations(ctx, o.User, "", peerRecsK); fail(e) })
			l.timed(i, "server.peer_recs", "client.peer_recs", func() {
				_, e := l.serve(http.MethodGet, "/api/v1/users/"+o.User+"/recommendations/peers", url.Values{"limit": {strconv.Itoa(peerRecsK)}}, nil)
				fail(e)
			})
			l.timed(i, "hive.peer_recs", "server.peer_recs", func() { _, e := l.be.recommendPeers(o.User, peerRecsK); fail(e) })
			eng := home(o.User)
			var recs []core.PeerRecommendation
			whole := l.timed(i, "core.recommend_peers", "hive.peer_recs", func() {
				var e error
				recs, e = eng.RecommendPeers(o.User, peerRecsK)
				fail(e)
			})
			explain := 0.0
			for _, r := range recs {
				explain += l.timed(i, "core.explain", "core.recommend_peers", func() { _, e := eng.Explain(o.User, r.UserID); fail(e) })
			}
			if whole > 0 {
				l.explainShare = append(l.explainShare, explain/whole)
			}
			if me := eng.PeerGraph().Lookup(o.User); me != graph.Invalid {
				l.timed(i, "graph.ppr", "core.recommend_peers", func() {
					eng.PeerGraph().PersonalizedPageRank(map[graph.NodeID]float64{me: 1}, graph.PageRankOptions{})
				})
			}
		case opRelationship:
			l.timed(i, "client.relationship", "", func() { _, e := c.Relationship(ctx, o.User, o.Other); fail(e) })
			l.timed(i, "core.explain", "client.relationship", func() { _, e := home(o.User).Explain(o.User, o.Other); fail(e) })
			l.timed(i, "biblio.author_cites_author", "core.explain", func() { biblio.AuthorCitesAuthor(l.ds.Papers, o.User, o.Other) })
			l.timed(i, "biblio.shared_references", "core.explain", func() { biblio.SharedReferences(l.ds.Papers, o.User, o.Other) })
		case opResourceRecs:
			l.timed(i, "client."+cls, "", func() { _, e := c.ResourceRecommendations(ctx, o.User, true, "", resourceK); fail(e) })
			l.timed(i, "core.recommend_resources", "client."+cls, func() { _, e := home(o.User).RecommendResources(o.User, resourceK, true); fail(e) })
		case opSessions:
			l.timed(i, "client."+cls, "", func() { _, e := c.SuggestSessions(ctx, o.User, o.Ref, "", sessionsK); fail(e) })
			l.timed(i, "core.suggest_sessions", "client."+cls, func() { _, e := home(o.User).SuggestSessions(o.User, o.Ref, sessionsK); fail(e) })
		case opDigest:
			l.timed(i, "client."+cls, "", func() { _, e := c.Digest(ctx, o.User, digestRows); fail(e) })
			eng := home(o.User)
			l.timed(i, "core.digest", "client."+cls, func() { _, e := eng.UpdateDigest(o.User, digestRows); fail(e) })
			tab := &summarize.Table{Columns: []string{"actor", "verb", "target"}}
			for _, ev := range l.be.home(o.User).Store().Feed(o.User, 0) {
				tab.Rows = append(tab.Rows, []string{ev.Actor, ev.Verb, eng.TargetKind(ev.Object)})
			}
			sum := summarize.NewSummarizer(tab.Columns, map[string]*summarize.Hierarchy{"target": digestHierarchy})
			l.timed(i, "summarize.greedy", "core.digest", func() { _, e := sum.Greedy(tab, digestRows); fail(e) })
		case opComment:
			mk := func(rung int) api.Comment {
				return api.Comment{ID: fmt.Sprintf("%s-r%d", o.ID, rung), Author: o.User, Target: o.Ref, Text: o.Text}
			}
			l.timed(i, "client.write", "", func() { fail(c.Comment(ctx, mk(0))) })
			l.timed(i, "server.write", "client.write", func() { _, e := l.serve(http.MethodPost, "/api/v1/comments", nil, mk(1)); fail(e) })
			prev := make([]*core.Engine, 0, 4)
			for _, p := range l.be.platforms() {
				prev = append(prev, p.Snapshot())
			}
			lastWrite = nil
			l.timed(i, "hive.write", "server.write", func() { fail(l.be.postComment(mk(2))) })
			l.timed(i, "social.mutate", "hive.write", func() { fail(st.PostComment(mk(3))) })
			mutates++
			if lastWrite != nil {
				w := *lastWrite
				bld := &core.Builder{Store: l.be.platforms()[w.shard].Store()}
				l.timed(i, "core.apply_delta", "hive.write", func() { _, e := bld.ApplyDelta(prev[w.shard], w.evs); fail(e) })
			}
			val, _ := json.Marshal(mk(4))
			l.timed(i, "kvstore.put", "social.mutate", func() { fail(kv.Put("c/"+o.ID, val)) })
			l.timed(i, "journal.append", "social.mutate", func() {
				fail(jn.Append(journal.Record{First: uint64(i + 1), Last: uint64(i + 1), Data: val}))
			})
		}
		if err != nil {
			return fmt.Errorf("ladder probe %d (%s): %w", i, cls, err)
		}
	}

	// Exact counts, taken with nothing running.
	platformWrites := 3 * mutates // L0, L1 and L2 each wrote through the platform
	l.deltasPerWrite = float64(l.be.deltasApplied()-deltasBefore) / float64(platformWrites)
	if storeDir != "" {
		l.walBytesPerWrite = float64(fileSize(filepath.Join(storeDir, "wal.log"))-walBefore) / float64(mutates)
		l.journalBytesPerWrite = float64(dirSize(filepath.Join(storeDir, "journal"))-jnBefore) / float64(mutates)
	}
	return nil
}

// ladderProbes draws the probe list: every class, interleaved so that
// no class runs on a systematically warmer machine than another.
func ladderProbes(seed int64, ds *workload.Dataset) []op {
	g := newGenerator(seed+4, ds, "l")
	var byClass [][]op
	for _, lc := range ladderCounts {
		ops := make([]op, lc.N)
		for i := range ops {
			ops[i] = g.next(lc.Kind)
		}
		byClass = append(byClass, ops)
	}
	var out []op
	for round := 0; ; round++ {
		added := false
		for _, ops := range byClass {
			if round < len(ops) {
				out = append(out, ops[round])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

func dirSize(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// med is the median of a span name's durations in µs; 0 when the rung
// never ran (which the validator reports).
func (l *ladder) med(name string) float64 {
	if len(l.durs[name]) == 0 {
		return 0
	}
	return median(l.durs[name])
}

// layers turns the rungs into the per-layer metrics.
func (l *ladder) layers(set func(name string, v float64)) {
	self := func(upper, lower string) float64 { return l.med(upper) - l.med(lower) }

	set("client.search.self_us", self("client.search", "server.search"))
	set("client.write.self_us", self("client.write", "server.write"))
	set("server.search.self_us", self("server.search", "hive.search"))
	set("server.feed.self_us", self("server.feed", "hive.feed"))
	set("server.peer_recs.self_us", self("server.peer_recs", "hive.peer_recs"))
	set("server.write.self_us", self("server.write", "hive.write"))
	set("server.resp_bytes_per_op", mean(l.respSize))

	set("hive.search.self_us", self("hive.search", "core.search"))
	set("hive.write.self_us", l.med("hive.write")-l.med("social.mutate")-l.med("core.apply_delta"))
	set("hive.deltas_per_write", l.deltasPerWrite)

	set("core.search.self_us", self("core.search", "textindex.frozen_search"))
	set("core.ctx_search.us", l.med("core.ctx_search"))
	set("core.recommend_peers.us", l.med("core.recommend_peers"))
	set("core.recommend_peers.explain_share", median(l.explainShare))
	set("core.explain.us", l.med("core.explain"))
	set("core.recommend_resources.us", l.med("core.recommend_resources"))
	set("core.suggest_sessions.us", l.med("core.suggest_sessions"))
	set("core.digest.us", l.med("core.digest"))
	set("core.apply_delta.us", l.med("core.apply_delta"))
	set("core.build.s", l.be.buildS)

	set("textindex.frozen_search.us", l.med("textindex.frozen_search"))
	set("textindex.segmented_search.us", l.med("textindex.segmented_search"))
	set("textindex.search_compiled.us", l.med("textindex.search_compiled"))
	set("graph.ppr.us", l.med("graph.ppr"))
	set("biblio.author_cites_author.us", l.med("biblio.author_cites_author"))
	set("biblio.shared_references.us", l.med("biblio.shared_references"))
	set("summarize.greedy.us", l.med("summarize.greedy"))

	set("social.mutate.us", l.med("social.mutate"))
	set("social.feed.us", l.med("social.feed"))
	set("kvstore.put.us", l.med("kvstore.put"))
	set("kvstore.wal_bytes_per_write", l.walBytesPerWrite)
	set("journal.append.us", l.med("journal.append"))
	set("journal.bytes_per_write", l.journalBytesPerWrite)

	// How much of the L0 write lies outside the two calls measured
	// directly (store mutate, delta fold): the part of the write budget
	// that rests on subtraction between rungs.
	direct := l.med("social.mutate") + l.med("core.apply_delta")
	set("trace.unaccounted_share.write", 1-direct/l.med("client.write"))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeSpans writes the trace: one JSON object per line, in call order.
func (l *ladder) writeSpans(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Package server exposes the Hive platform as a versioned JSON REST
// API — the web-facing surface of Figure 1. The paper's deployment used
// JomSocial/Joomla; this server is the stdlib net/http substitute
// offering the same service set (profiles, connections, follows,
// content, check-ins, Q&A, browsing, workpads, feeds) plus the
// knowledge services (relationship explanation, recommendations,
// context-aware search, previews, digests, communities, activity change
// monitoring).
//
// The contract lives in the hive/api package: /api/v1 routes speak
// typed DTOs, list endpoints return cursor-paginated api.Page envelopes,
// errors use the structured envelope with stable codes, and knowledge
// GETs support conditional requests (ETag keyed on the snapshot
// generation, so an unchanged snapshot revalidates with a 304 instead
// of a recompute+encode). Only /metrics sits outside /api/v1.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"hive"
	"hive/api"
	"hive/internal/core"
	"hive/internal/journal"
	"hive/internal/metrics"
	"hive/internal/social"
	"hive/internal/textindex"
)

// Clamp ceilings for non-pagination integer parameters: how many
// results a single request may ask the engine to compute.
const (
	maxK           = api.MaxPageSize
	maxBudget      = 100
	maxEpochEvents = 10000
)

// Config tunes the operational limits and the access log. The zero
// value disables all four (no timeout, no in-flight cap, no rate limit,
// no access log) — the right default for tests and embedded use;
// cmd/hived wires real limits from flags. Instrumentation is not among
// them: every server serves /metrics and debug/traces and records every
// request.
type Config struct {
	// Timeout bounds per-request handling time (0 = unbounded).
	Timeout time.Duration
	// MaxInFlight caps concurrent requests (0 = uncapped); excess gets 503.
	MaxInFlight int
	// QPS rate-limits requests globally (0 = unlimited); excess gets 429.
	// The bucket holds one second's worth: max(1, QPS) requests.
	QPS float64
	// AccessLog, when set, receives one line per request.
	AccessLog *log.Logger
}

// Server routes HTTP requests to the one serving backend: a Sharded of
// n >= 1 shard-leader Platforms behind the owner-hash router (writes
// route to the owning shard, reads scatter-gather; with one shard both
// are the identity).
type Server struct {
	sh  *hive.Sharded
	mux *http.ServeMux
	h   http.Handler // mux inside the limits, inside the request envelope

	// traces is the bounded ring behind GET /api/v1/debug/traces.
	traces *metrics.Recorder

	// boot is 8 random bytes per server (hex), so an ETag issued by one
	// process (a restarted hived, another replica behind the same URL)
	// never validates on another whose generation happens to be equal.
	boot string
}

// New builds a server around a standalone platform with default Config.
func New(p *hive.Platform) *Server { return NewWith(p, Config{}) }

// NewWith builds a server around a standalone platform, served as a
// one-shard Sharded.
func NewWith(p *hive.Platform, cfg Config) *Server { return newServer(hive.OneShard(p), cfg) }

// NewSharded builds a server fronting a sharded platform: every
// mutation routes to the owning user's shard leader, reads fan out
// across the shard engines, and healthz/cluster expose the shard map.
func NewSharded(sh *hive.Sharded, cfg Config) *Server { return newServer(sh, cfg) }

func newServer(sh *hive.Sharded, cfg Config) *Server {
	s := &Server{sh: sh, mux: http.NewServeMux(), traces: metrics.NewRecorder(metrics.DefaultTraceCapacity), boot: metrics.NewTraceID()}
	s.routes()

	// The envelope holds the time budget; inside it, the load limits.
	// Replication traffic is exempt from the load limits: the events
	// feed parks by design (each connected follower would permanently
	// burn one in-flight slot), and a rate-limited or shed poll
	// inflates replication lag exactly when the leader is busiest. The
	// metrics scrape is exempt for the same reason inverted: shedding
	// the scrape blinds the operator exactly when the server is busiest.
	var limits []Middleware
	if cfg.MaxInFlight > 0 {
		limits = append(limits, exceptPaths(MaxInFlight(cfg.MaxInFlight), capExempt))
	}
	if cfg.QPS > 0 {
		limits = append(limits, exceptPaths(RateLimit(cfg.QPS, int(cfg.QPS)), capExempt))
	}
	env := newEnvelope(Chain(s.mux, limits...), s.routePattern, s.traces, cfg.AccessLog)
	env.budget = cfg.Timeout
	s.h = env
	return s
}

// routePattern resolves a request's matched mux pattern for the route
// metric label (a second mux lookup — the envelope runs outside the
// mux, so the pattern the mux stamps on its own request copy is not
// visible there). The method prefix is stripped: the method is its own
// label.
func (s *Server) routePattern(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if _, route, ok := strings.Cut(pattern, " "); ok {
		return route
	}
	return pattern
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// timeoutExempt lists routes whose handling time legitimately scales
// with data size: a synchronous snapshot rebuild (?wait=true) or a bulk
// batch on a large deployment can take minutes, and a mid-flight 503
// would be indistinguishable from failure while the work completes
// server-side anyway.
func timeoutExempt(path string) bool {
	switch path {
	case "/api/v1/batch", "/api/v1/admin/refresh":
		return true
	}
	// The replication feed long-polls by design (a caught-up follower
	// parks here until the leader writes), and the bootstrap snapshot
	// scales with the dataset.
	return replicationPath(path)
}

// replicationPath marks the replication endpoints, which are exempt
// from the per-request operational limits (see newServer).
func replicationPath(path string) bool {
	switch path {
	case "/api/v1/replication/events", "/api/v1/replication/snapshot":
		return true
	}
	return false
}

// capExempt marks paths exempt from the in-flight and QPS caps: the
// replication endpoints plus the metrics scrape — load shedding must
// never hide the load from the telemetry that reports it.
func capExempt(path string) bool {
	return replicationPath(path) || path == "/metrics"
}

// exceptPaths applies mw to all requests except those whose path the
// exempt predicate accepts.
func exceptPaths(mw Middleware, exempt func(string) bool) Middleware {
	return func(next http.Handler) http.Handler {
		limited := mw(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if exempt(r.URL.Path) {
				next.ServeHTTP(w, r)
				return
			}
			limited.ServeHTTP(w, r)
		})
	}
}

// node is the platform behind the endpoints that describe or feed one
// replica — replication, cluster status, the delta and snapshot blocks
// of healthz — and the reads of broadcast data every shard holds.
// Shard 0 answers them; with one shard that is the whole node.
func (s *Server) node() *hive.Platform { return s.sh.Shard(0) }

// routes registers the v1 surface.
func (s *Server) routes() {
	m := s.mux
	sh := s.sh

	// --- /api/v1: mutations ------------------------------------------------
	// The typed route and the batch dispatch (applyEntity) call the same
	// router method, so semantics cannot drift between the two.
	// Owner-hashed kinds record their owner's shard in the request
	// trace; broadcast reference entities and probe-routed children use
	// the plain adapter.
	m.HandleFunc("POST /api/v1/users", create(sh.RegisterUser))
	m.HandleFunc("POST /api/v1/conferences", create(sh.CreateConference))
	m.HandleFunc("POST /api/v1/sessions", create(sh.CreateSession))
	m.HandleFunc("POST /api/v1/papers", createOwned(s, api.PaperOwner, sh.PublishPaper))
	m.HandleFunc("POST /api/v1/presentations", create(sh.UploadPresentation))
	m.HandleFunc("POST /api/v1/connections", createOwned(s, func(r api.ConnectRequest) string { return r.A }, s.applyConnect))
	m.HandleFunc("POST /api/v1/follows", createOwned(s, func(r api.FollowRequest) string { return r.Follower }, s.applyFollow))
	m.HandleFunc("POST /api/v1/checkins", createOwned(s, func(r api.CheckinRequest) string { return r.UserID }, s.applyCheckin))
	m.HandleFunc("POST /api/v1/questions", create(sh.Ask))
	m.HandleFunc("POST /api/v1/answers", create(sh.AnswerQuestion))
	m.HandleFunc("POST /api/v1/comments", create(sh.PostComment))
	m.HandleFunc("POST /api/v1/browses", createOwned(s, func(r api.BrowseRequest) string { return r.UserID }, s.applyBrowse))
	m.HandleFunc("POST /api/v1/workpads", createOwned(s, func(wp api.Workpad) string { return wp.Owner }, sh.CreateWorkpad))
	m.HandleFunc("POST /api/v1/workpads/{id}/items", s.postWorkpadItem)
	m.HandleFunc("POST /api/v1/workpads/{id}/activate", s.postWorkpadActivate)
	m.HandleFunc("POST /api/v1/batch", s.postBatch)
	m.HandleFunc("POST /api/v1/admin/refresh", s.postAdminRefresh)

	// --- /api/v1: replication ------------------------------------------------
	// The journal feed and the bootstrap snapshot. The feed is served
	// by any journaled node, the snapshot only by the leader (not_leader
	// elsewhere); in-memory nodes answer with a typed error. Writes on a
	// follower are rejected by the platform's write fence
	// (NotLeaderError -> not_leader envelope), so every mutation route
	// above, postBatch included, is follower-safe without per-route
	// guards.
	m.HandleFunc("GET /api/v1/replication/events", s.getReplicationEvents)
	m.HandleFunc("GET /api/v1/replication/snapshot", s.getReplicationSnapshot)
	m.HandleFunc("GET /api/v1/cluster", s.getCluster)

	// --- Observability -----------------------------------------------------
	// Prometheus text exposition and the slow-trace ring. /metrics is
	// exempt from the QPS and in-flight caps (capExempt) so shedding never
	// blinds the operator.
	m.HandleFunc("GET /metrics", s.getMetrics)
	m.HandleFunc("GET /api/v1/debug/traces", s.getTraces)

	// --- /api/v1: reads ----------------------------------------------------
	m.HandleFunc("GET /api/v1/healthz", s.getHealthz)
	m.HandleFunc("GET /api/v1/users/{id}", s.getUser)
	m.HandleFunc("GET /api/v1/users", page(s.fetchUsers))
	m.HandleFunc("GET /api/v1/sessions/{id}/attendees", page(s.fetchAttendees))
	m.HandleFunc("GET /api/v1/users/{id}/workpad", s.getActiveWorkpad)
	// Feeds page with a per-shard sequence-vector cursor
	// (api.EncodeShardCursor), not the offset cursor page() mints.
	m.HandleFunc("GET /api/v1/users/{id}/feed", s.getFeed)
	m.HandleFunc("GET /api/v1/tags/{tag}/events", page(s.fetchTagEvents))

	// Knowledge services: engine-backed, so their responses are a pure
	// function of the snapshot — conditional GETs revalidate on the
	// snapshot generation.
	m.HandleFunc("GET /api/v1/relationship", s.etag(s.getRelationship))
	m.HandleFunc("GET /api/v1/users/{id}/recommendations/peers", s.etag(pageThen(s.fetchPeerRecs, s.explainPeerRecs)))
	m.HandleFunc("GET /api/v1/users/{id}/recommendations/resources", s.etag(page(s.fetchResourceRecs)))
	m.HandleFunc("GET /api/v1/users/{id}/sessions/suggest", s.etag(page(s.fetchSessionSuggestions)))
	m.HandleFunc("GET /api/v1/search", s.etag(page(s.fetchSearch)))
	m.HandleFunc("GET /api/v1/preview", s.etag(s.getPreview))
	m.HandleFunc("GET /api/v1/users/{id}/digest", s.etag(s.getDigest))
	m.HandleFunc("GET /api/v1/communities", s.etag(page(s.fetchCommunities)))
	m.HandleFunc("GET /api/v1/users/{id}/history", s.etag(page(s.fetchHistory)))
	m.HandleFunc("GET /api/v1/users/{id}/resource-relationship", s.etag(s.getResourceRelationship))
	m.HandleFunc("GET /api/v1/knowledge/paths", s.etag(s.getKnowledgePaths))
	m.HandleFunc("GET /api/v1/activity/changes", s.etag(page(s.fetchActivityChanges)))
}

// --- Generic handler adapters ------------------------------------------------

// Request-body size caps: json.Decoder buffers the payload in memory
// before validation, so unbounded bodies are an OOM vector the
// in-flight/QPS limits don't cover.
const (
	maxEntityBody = 1 << 20  // single-entity requests
	maxBatchBody  = 64 << 20 // bulk ingest
)

// decodeBody JSON-decodes a capped request body into v, writing the
// appropriate error envelope (413 over the cap, 400 on bad JSON) and
// returning false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, r, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad json: "+err.Error())
		return false
	}
	return true
}

// create adapts a typed JSON mutation handler: decode the DTO, apply,
// answer 201 with the created envelope.
func create[T any](fn func(T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var v T
		if !decodeBody(w, r, &v, maxEntityBody) {
			return
		}
		if err := fn(v); err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusCreated, api.CreatedResponse{Status: "created"})
	}
}

// createOwned adapts an owner-hashed mutation: like create, but the
// owner's shard is recorded in the request trace first.
func createOwned[T any](s *Server, ownerOf func(T) string, fn func(T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var v T
		if !decodeBody(w, r, &v, maxEntityBody) {
			return
		}
		s.traceShard(r, ownerOf(v))
		if err := fn(v); err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusCreated, api.CreatedResponse{Status: "created"})
	}
}

// traceShard records the shard an owner's write goes to in the request
// trace, so the access log and debug/traces report where it went.
func (s *Server) traceShard(r *http.Request, owner string) {
	if owner != "" {
		metrics.TraceFrom(r.Context()).SetShard(s.sh.ShardOf(owner))
	}
}

// fetcher produces up to n items for a list endpoint, reading its
// endpoint-specific parameters from the request. n bounds how many
// items the fetch may compute from position zero; implementations
// backed by cheap full listings may ignore it.
type fetcher[T any] func(r *http.Request, n int) ([]T, error)

// page adapts a fetcher into the v1 cursor-paginated handler. It
// fetches one element past the page end so NextCursor is only set when
// a further page actually exists.
func page[T any](fetch fetcher[T]) http.HandlerFunc { return pageThen(fetch, nil) }

// pageThen is page with a finishing step run on the served items only:
// fetch may return items that are cheap to rank but incomplete, and
// finish completes the ones the response carries, so neither the items
// before the cursor nor the one-past-the-end probe pay for it.
func pageThen[T any](fetch fetcher[T], finish func(r *http.Request, items []T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit := intParam(r, "limit", api.DefaultPageSize, 1, api.MaxPageSize)
		offset, err := api.DecodeCursor(r.URL.Query().Get("cursor"))
		if err != nil {
			writeErr(w, r, err)
			return
		}
		items, err := fetch(r, offset+limit+1)
		if err != nil {
			writeErr(w, r, err)
			return
		}
		pg := api.Paginate(items, offset, limit)
		if finish != nil {
			if err := finish(r, pg.Items); err != nil {
				writeErr(w, r, err)
				return
			}
		}
		writeJSON(w, http.StatusOK, pg)
	}
}

// etag adds conditional-GET support keyed on the server's boot ID and
// the snapshot generation. Knowledge responses are a pure function of (snapshot, URL), so a
// matching If-None-Match for the still-serving generation is answered
// 304 before any engine work. The generation is read *before* the
// handler resolves the snapshot: if a swap races in between, the
// response is tagged one generation old and a client merely revalidates
// once more — never the reverse (a 304 for content it doesn't hold).
// writeJSON drops the tag from an error response.
func (s *Server) etag(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tag := fmt.Sprintf(`"hive-%s-g%d"`, s.boot, s.sh.Generation())
		w.Header().Set("ETag", tag)
		if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, tag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h(w, r)
	}
}

// etagMatch reports whether the If-None-Match header value matches tag,
// honoring lists. The '*' wildcard is deliberately NOT a match: per RFC
// 9110 it matches only when a current representation exists, which is
// unknown before the handler runs — treating it as a miss costs one
// full response instead of risking a 304 for a resource that 404s.
func etagMatch(header, tag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == tag {
			return true
		}
	}
	return false
}

// --- Replication ---------------------------------------------------------------

// maxReplWait bounds the long-poll hold time so a follower's request
// never parks indefinitely on a quiet leader.
const (
	maxReplWait     = 30 * time.Second
	defaultReplMax  = 256
	maxReplBatchReq = 4096
)

// getReplicationEvents serves the change-journal feed: batches after
// ?from=SEQ, up to ?max, long-polling up to ?wait_ms when the caller is
// caught up. 410 gone + code "compacted" means retention dropped the
// range and the follower must re-bootstrap from the snapshot endpoint.
//
// ?epoch=N asserts the poller's adopted leadership term: a request
// ahead of this node's term is answered 409 + code "stale_epoch" — the
// poller has adopted a newer term, so this node is a deposed leader (or
// lagging peer) whose feed must not be applied. The poller re-resolves
// the leader instead of consuming fenced batches. Asserting 0 (or
// omitting the parameter) skips the check, which keeps pre-epoch
// followers working against upgraded leaders.
func (s *Server) getReplicationEvents(w http.ResponseWriter, r *http.Request) {
	from, err := uintParam(r, "from")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, "bad from: "+err.Error())
		return
	}
	reqEpoch, err := uintParam(r, "epoch")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, "bad epoch: "+err.Error())
		return
	}
	p := s.node()
	if cur := p.Epoch(); reqEpoch > cur {
		writeErr(w, r, &hive.StaleEpochError{Requested: reqEpoch, Current: cur})
		return
	}
	// ?self=URL&applied=SEQ&commit=SEQ piggybacks a follower progress
	// report on the poll — the ack path of quorum writes. The ack is
	// recorded before the feed read (and before any long-poll park), so
	// a held write releases as soon as the confirming poll arrives, not
	// when it returns. The reported commit index lets the feed release a
	// parked poll early when this node's durability watermark is ahead;
	// pollers that don't report one never get that early release.
	pollerCommit := ^uint64(0)
	if self := r.URL.Query().Get("self"); self != "" {
		applied, aerr := uintParam(r, "applied")
		if aerr != nil {
			writeError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, "bad applied: "+aerr.Error())
			return
		}
		commit, cerr := uintParam(r, "commit")
		if cerr != nil {
			writeError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, "bad commit: "+cerr.Error())
			return
		}
		pollerCommit = commit
		p.RecordFollowerAck(self, applied, reqEpoch)
	}
	max := intParam(r, "max", defaultReplMax, 1, maxReplBatchReq)
	waitMS := intParam(r, "wait_ms", 0, 0, int(maxReplWait.Milliseconds()))
	batches, tail, err := p.ReplicationFeed(r.Context(), from, max, time.Duration(waitMS)*time.Millisecond, pollerCommit)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ReplicationEvents{
		Batches: batches,
		Tail:    tail,
		Epoch:   p.Epoch(),
		Commit:  p.CommitIndex(),
	})
}

// getReplicationSnapshot serves the full bootstrap image and the
// sequence watermark it is exactly at, so a follower tailing from it
// neither misses a batch nor holds a write the journal lacks.
func (s *Server) getReplicationSnapshot(w http.ResponseWriter, r *http.Request) {
	p := s.node()
	seq, entries, err := p.ReplicationSnapshot()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	out := api.ReplicationSnapshot{Seq: seq, Epoch: p.Epoch(), Entries: make([]api.KVEntry, len(entries))}
	for i, e := range entries {
		out.Entries[i] = api.KVEntry{Key: e.Key, Value: e.Val}
	}
	writeJSON(w, http.StatusOK, out)
}

// getCluster serves the node's view of the replica set: its own
// replication block and shard rows, plus a concurrent liveness/lag probe
// of every configured peer (Platform.ProbePeers, one 750 ms budget).
// Followers answer too.
func (s *Server) getCluster(w http.ResponseWriter, r *http.Request) {
	rows := s.states()
	writeJSON(w, http.StatusOK, api.ClusterStatus{
		ReplicationHealth: rows[0].ReplicationHealth,
		Peers:             s.node().ProbePeers(r.Context()),
		ShardMap:          api.ShardMap{ShardCount: len(rows), Shards: rows},
	})
}

// --- Observability --------------------------------------------------------------

// getMetrics serves the process-wide registry in the Prometheus text
// format. Event-driven instruments (counters, latency histograms) are
// already current; state gauges are collected from the platform
// accessors at scrape time, so one scrape sees one consistent snapshot
// of sizes/watermarks without the hot paths maintaining gauges; the Go
// runtime's series are read at the same moment.
func (s *Server) getMetrics(w http.ResponseWriter, r *http.Request) {
	s.collectStateGauges()
	collectRuntimeGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.Default.WriteText(w)
}

// collectStateGauges copies the shard states into the registry's
// gauges: overlay size, frozen corpus size, commit index, kv image
// size, and this node's replication lag.
func (s *Server) collectStateGauges() {
	reg := metrics.Default
	overlay := reg.GaugeVec(metrics.OverlayDocs, "Documents in the delta overlay (compaction pressure).", "shard")
	corpus := reg.GaugeVec(metrics.ShardDocs, "Frozen-corpus documents indexed.", "shard")
	commit := reg.GaugeVec(metrics.CommitIndex, "Quorum-durable commit watermark.", "shard")
	image := reg.GaugeVec(metrics.StoreImageBytes, "Bytes of the kv store's in-memory image.", "shard")
	lag := reg.Gauge(metrics.ReplicationLagEvents, "Journal events this node trails its leader by (0 on leaders).")

	rows := s.states()
	for i, st := range rows {
		id := strconv.Itoa(st.ID)
		commit.With(id).Set(float64(st.CommitIndex))
		overlay.With(id).Set(float64(st.OverlayDocs))
		corpus.With(id).Set(float64(st.FrozenDocs))
		image.With(id).Set(float64(s.sh.Shard(i).Store().ImageBytes()))
	}
	lag.Set(float64(rows[0].LagEvents))
}

// collectRuntimeGauges copies the Go runtime's live heap, goroutine
// count and GC cycle count into the registry.
func collectRuntimeGauges() {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	reg := metrics.Default
	reg.Gauge(metrics.GoHeapLiveBytes, "Heap bytes the last GC found live.").Set(float64(samples[0].Value.Uint64()))
	reg.Gauge(metrics.GoGoroutines, "Live goroutines.").Set(float64(samples[1].Value.Uint64()))
	reg.Counter(metrics.GoGCCyclesTotal, "Completed GC cycles.").Store(samples[2].Value.Uint64())
}

// getTraces serves the slowest recent request traces (?n=, default 20)
// out of the bounded ring the Observe middleware feeds.
func (s *Server) getTraces(w http.ResponseWriter, r *http.Request) {
	n := intParam(r, "n", 20, 1, metrics.DefaultTraceCapacity)
	views := s.traces.Slowest(n)
	out := api.TraceReport{Traces: make([]api.TraceInfo, len(views)), Capacity: metrics.DefaultTraceCapacity}
	for i, v := range views {
		info := api.TraceInfo{
			TraceID:    v.ID,
			Method:     v.Method,
			Route:      v.Route,
			Status:     v.Status,
			Shard:      v.Shard,
			StartedAt:  v.StartedAt,
			DurationUS: v.DurationUS,
		}
		if len(v.Stages) > 0 {
			info.Stages = make([]api.TraceStage, len(v.Stages))
			for j, st := range v.Stages {
				info.Stages[j] = api.TraceStage{Name: st.Name, DurationUS: st.DurationUS}
			}
		}
		out.Traces[i] = info
	}
	writeJSON(w, http.StatusOK, out)
}

// uintParam parses a required non-negative integer query parameter.
func uintParam(r *http.Request, name string) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

// --- Health & refresh ---------------------------------------------------------

// states reads every shard's state, in shard order: the rows of healthz
// and the cluster endpoint, and the source of the state gauges.
func (s *Server) states() []api.ShardStatus {
	shards := s.sh.Shards()
	out := make([]api.ShardStatus, len(shards))
	for i, p := range shards {
		out[i] = p.State()
	}
	return out
}

// getHealthz reports liveness plus every shard's state (see
// api.ShardStatus). Generation sums the shards' generations and stale
// ORs theirs; the other top-level snapshot fields and the delta and
// replication blocks are shard 0's row, and Shards the whole map.
func (s *Server) getHealthz(w http.ResponseWriter, r *http.Request) {
	rows := s.states()
	out := api.Health{
		Status:         "ok",
		SnapshotHealth: rows[0].SnapshotHealth,
		Delta:          rows[0].DeltaHealth,
		Replication:    rows[0].ReplicationHealth,
		ShardMap:       api.ShardMap{ShardCount: len(rows), Shards: rows},
	}
	for _, st := range rows[1:] {
		out.Generation += st.Generation
		out.Stale = out.Stale || st.Stale
	}
	writeJSON(w, http.StatusOK, out)
}

// postAdminRefresh triggers a background compaction and returns 202
// immediately; with ?wait=true it compacts every shard (in parallel) in
// the request goroutine and returns 200 once the new snapshots are
// live. Reads keep being served from the old snapshot either way. The
// response carries the delta pipeline's state so operators see what the
// compaction is (or was) reclaiming.
func (s *Server) postAdminRefresh(w http.ResponseWriter, r *http.Request) {
	status, code := "refresh scheduled", http.StatusAccepted
	if r.URL.Query().Get("wait") == "true" {
		if err := s.sh.Refresh(); err != nil {
			writeErr(w, r, err)
			return
		}
		status, code = "refreshed", http.StatusOK
	} else {
		s.sh.RefreshAsync()
	}
	st := s.node().State()
	writeJSON(w, code, api.RefreshResponse{Status: status, Delta: &st.DeltaHealth})
}

// --- Batch ingest -------------------------------------------------------------

// postBatch applies a mixed array of entities in one store pass: the
// whole batch costs a single snapshot invalidation instead of one per
// entity — the scale path for bulk loaders. Elements apply in array
// order (put dependencies first) and independently: a failed element is
// reported in the response without aborting the rest.
func (s *Server) postBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !decodeBody(w, r, &req, maxBatchBody) {
		return
	}
	var resp api.BatchResponse
	apply := func() error {
		for i, ent := range req.Entities {
			if err := s.applyEntity(ent); err != nil {
				resp.Failed++
				resp.Errors = append(resp.Errors, api.BatchItemError{
					Index: i, Kind: ent.Kind, Error: apiError(err),
				})
				continue
			}
			resp.Applied++
		}
		return nil
	}
	// One coalesced change batch per shard: the shard Batched scopes
	// nest, so each routed element folds into its shard's batch. Every
	// element goes through the write fence; a shard behind it refuses
	// the batch up front with the not_leader a single write would get.
	if err := s.sh.Batched(apply); err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// The request DTOs whose fields the router takes apart; every other
// kind's DTO is the router method's own argument.

func (s *Server) applyConnect(r api.ConnectRequest) error { return s.sh.Connect(r.A, r.B) }

func (s *Server) applyFollow(r api.FollowRequest) error {
	return s.sh.Follow(r.Follower, r.Followee)
}

func (s *Server) applyCheckin(r api.CheckinRequest) error {
	return s.sh.CheckIn(r.SessionID, r.UserID)
}

func (s *Server) applyBrowse(r api.BrowseRequest) error {
	return s.sh.LogBrowse(r.UserID, r.Object)
}

// applyBatchItem decodes one batch element's data and runs the applier.
func applyBatchItem[T any](ent api.BatchEntity, fn func(T) error) error {
	var v T
	if err := json.Unmarshal(ent.Data, &v); err != nil {
		return fmt.Errorf("%w: %s data: %v", social.ErrInvalid, ent.Kind, err)
	}
	return fn(v)
}

// applyEntity dispatches one batch element to the router method its
// typed route calls.
func (s *Server) applyEntity(ent api.BatchEntity) error {
	switch ent.Kind {
	case api.KindUser:
		return applyBatchItem(ent, s.sh.RegisterUser)
	case api.KindConference:
		return applyBatchItem(ent, s.sh.CreateConference)
	case api.KindSession:
		return applyBatchItem(ent, s.sh.CreateSession)
	case api.KindPaper:
		return applyBatchItem(ent, s.sh.PublishPaper)
	case api.KindPresentation:
		return applyBatchItem(ent, s.sh.UploadPresentation)
	case api.KindConnection:
		return applyBatchItem(ent, s.applyConnect)
	case api.KindFollow:
		return applyBatchItem(ent, s.applyFollow)
	case api.KindCheckin:
		return applyBatchItem(ent, s.applyCheckin)
	case api.KindQuestion:
		return applyBatchItem(ent, s.sh.Ask)
	case api.KindAnswer:
		return applyBatchItem(ent, s.sh.AnswerQuestion)
	case api.KindComment:
		return applyBatchItem(ent, s.sh.PostComment)
	case api.KindWorkpad:
		return applyBatchItem(ent, s.sh.CreateWorkpad)
	case api.KindBrowse:
		return applyBatchItem(ent, s.applyBrowse)
	default:
		return fmt.Errorf("%w: unknown batch kind %q", social.ErrInvalid, ent.Kind)
	}
}

// --- Entity reads & workpad mutations -----------------------------------------

func (s *Server) getUser(w http.ResponseWriter, r *http.Request) {
	u, err := s.sh.GetUser(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

func (s *Server) postWorkpadItem(w http.ResponseWriter, r *http.Request) {
	var item api.WorkpadItem
	if !decodeBody(w, r, &item, maxEntityBody) {
		return
	}
	if err := s.sh.AddToWorkpad(r.PathValue("id"), item); err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.CreatedResponse{Status: "added"})
}

// postWorkpadActivate takes the owner in the JSON body.
func (s *Server) postWorkpadActivate(w http.ResponseWriter, r *http.Request) {
	var req api.ActivateWorkpadRequest
	if !decodeBody(w, r, &req, maxEntityBody) {
		return
	}
	s.traceShard(r, req.Owner)
	if err := s.sh.ActivateWorkpad(req.Owner, r.PathValue("id")); err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.CreatedResponse{Status: "activated"})
}

func (s *Server) getActiveWorkpad(w http.ResponseWriter, r *http.Request) {
	wp, err := s.sh.ActiveWorkpad(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wp)
}

// --- List fetchers ------------------------------------------------------------

func (s *Server) fetchUsers(_ *http.Request, n int) ([]string, error) {
	return s.node().Store().UsersN(n), nil
}

func (s *Server) fetchAttendees(r *http.Request, _ int) ([]string, error) {
	return s.sh.Attendees(r.PathValue("id")), nil
}

// getFeed serves the v1 feed page, newest first, from the cross-shard
// merge. The envelope matches page()'s, but NextCursor is the opaque
// per-shard sequence-bound vector — stable while any shard keeps
// writing.
func (s *Server) getFeed(w http.ResponseWriter, r *http.Request) {
	limit := intParam(r, "limit", api.DefaultPageSize, 1, api.MaxPageSize)
	metrics.TraceFrom(r.Context()).SetShard(s.sh.ShardOf(r.PathValue("id")))
	items, next, err := s.sh.FeedPage(r.Context(), r.PathValue("id"), r.URL.Query().Get("cursor"), limit)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.Page[api.Event]{Items: items, Limit: limit, NextCursor: next})
}

func (s *Server) fetchTagEvents(r *http.Request, _ int) ([]api.Event, error) {
	return s.sh.EventsByTag(normalizeTag(r.PathValue("tag"))), nil
}

// normalizeTag canonicalizes a path tag to exactly one leading '#':
// clients may pass "graphs13" or an already-hashed "#graphs13" and both
// resolve the same fan-out (previously "#" was prepended untrimmed, so
// hashed input became "##tag" and silently matched nothing).
func normalizeTag(tag string) string {
	return "#" + strings.TrimLeft(tag, "#")
}

// The user-scoped knowledge fetchers answer from the user's home shard
// (its engine holds their partition's evidence); search scatter-gathers
// across every shard engine.

// Peer recommendations rank the whole prefix but explain only the page.
func (s *Server) fetchPeerRecs(r *http.Request, n int) ([]api.PeerRecommendation, error) {
	return s.sh.RankPeers(r.PathValue("id"), n)
}

func (s *Server) explainPeerRecs(r *http.Request, recs []api.PeerRecommendation) error {
	return s.sh.ExplainPeers(r.PathValue("id"), recs)
}

func (s *Server) fetchResourceRecs(r *http.Request, n int) ([]api.ResourceRecommendation, error) {
	return s.sh.RecommendResources(r.PathValue("id"), n, r.URL.Query().Get("context") != "false")
}

func (s *Server) fetchSessionSuggestions(r *http.Request, n int) ([]api.SessionSuggestion, error) {
	return s.sh.SuggestSessions(r.PathValue("id"), r.URL.Query().Get("conf"), n)
}

func (s *Server) fetchSearch(r *http.Request, n int) ([]api.SearchResult, error) {
	q := r.URL.Query().Get("q")
	if user := r.URL.Query().Get("user"); user != "" {
		return s.sh.SearchWithContext(r.Context(), user, q, n)
	}
	return s.sh.Search(r.Context(), q, n)
}

func (s *Server) fetchCommunities(_ *http.Request, _ int) ([][]string, error) {
	return s.sh.Communities()
}

// Activity changes answer over every shard's activity stream.
func (s *Server) fetchActivityChanges(r *http.Request, _ int) ([]api.ActivityChange, error) {
	return s.sh.MonitorActivity(intParam(r, "epoch_events", 100, 1, maxEpochEvents))
}

func (s *Server) fetchHistory(r *http.Request, n int) ([]api.HistoryEntry, error) {
	q := r.URL.Query().Get("q")
	return s.sh.SearchHistory(r.PathValue("id"), q, r.URL.Query().Get("context") == "true", n)
}

// --- Scalar knowledge endpoints -----------------------------------------------

// answer writes a scalar knowledge result, or its error envelope.
func answer(w http.ResponseWriter, r *http.Request, v any, err error) {
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) getRelationship(w http.ResponseWriter, r *http.Request) {
	ex, err := s.sh.Explain(r.URL.Query().Get("a"), r.URL.Query().Get("b"))
	answer(w, r, ex, err)
}

func (s *Server) getPreview(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snips, err := s.sh.Preview(q.Get("user"), q.Get("doc"), intParam(r, "k", 3, 1, maxK))
	answer(w, r, snips, err)
}

func (s *Server) getDigest(w http.ResponseWriter, r *http.Request) {
	sum, err := s.sh.UpdateDigest(r.PathValue("id"), intParam(r, "budget", 5, 1, maxBudget))
	answer(w, r, sum, err)
}

func (s *Server) getResourceRelationship(w http.ResponseWriter, r *http.Request) {
	evs, err := s.sh.ExplainResource(r.PathValue("id"), r.URL.Query().Get("entity"))
	answer(w, r, evs, err)
}

func (s *Server) getKnowledgePaths(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	paths, err := s.sh.KnowledgePaths(q.Get("a"), q.Get("b"), intParam(r, "k", 3, 1, maxK))
	answer(w, r, paths, err)
}

// --- Plumbing -----------------------------------------------------------------

// intParam parses an integer query parameter. Missing, unparsable or
// below-minimum values take the default (clamping limit=0 to 1 would
// silently return a single item); values above max are clamped. Engine
// calls therefore never see negative or absurd sizes. def must lie
// within [min, max].
func intParam(r *http.Request, name string, def, min, max int) int {
	n := def
	if v := r.URL.Query().Get(name); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			n = parsed
		}
	}
	if n < min {
		n = def
	}
	if n > max {
		n = max
	}
	return n
}

// writeJSON sends v with the given status. Only a success keeps the
// ETag a conditional route set: an error envelope has no representation
// for the client to cache.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if status >= http.StatusMultipleChoices {
		h.Del("ETag")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the structured error envelope, stamped with the
// request's trace ID so a failed call is findable in the access log
// and debug/traces.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeJSON(w, status, api.ErrorResponse{
		Error:   &api.Error{Code: code, Message: msg},
		TraceID: traceID(r),
	})
}

// traceID returns the request's one ID, the trace ID the envelope
// assigned ("" for a request served outside it).
func traceID(r *http.Request) string { return metrics.TraceFrom(r.Context()).ID() }

// apiError maps a domain error to its wire form.
func apiError(err error) *api.Error {
	ae, _ := classify(err)
	return ae
}

// classify maps domain errors to stable (error envelope, HTTP status)
// pairs — the machine-readable half of the v1 contract. Structured
// details ride along where the caller can act on them (the leader URL
// behind a not_leader rejection).
func classify(err error) (*api.Error, int) {
	var nle *hive.NotLeaderError
	var see *hive.StaleEpochError
	var que *hive.QuorumUnavailableError
	switch {
	case errors.As(err, &que):
		return &api.Error{
			Code:    api.CodeQuorumUnavailable,
			Message: err.Error(),
			Details: map[string]any{"seq": que.Seq, "acked": que.Acked, "needed": que.Needed},
		}, http.StatusServiceUnavailable
	case errors.As(err, &nle):
		return &api.Error{
			Code:    api.CodeNotLeader,
			Message: err.Error(),
			Details: map[string]any{"leader": nle.Leader, "epoch": nle.Epoch, "shard": nle.Shard},
		}, http.StatusConflict
	case errors.As(err, &see):
		return &api.Error{
			Code:    api.CodeStaleEpoch,
			Message: err.Error(),
			Details: map[string]any{"epoch": see.Current, "requested_epoch": see.Requested},
		}, http.StatusConflict
	case errors.Is(err, social.ErrStaleEpoch):
		return &api.Error{Code: api.CodeStaleEpoch, Message: err.Error()}, http.StatusConflict
	case errors.Is(err, journal.ErrCompacted):
		return &api.Error{Code: api.CodeCompacted, Message: err.Error()}, http.StatusGone
	case errors.Is(err, social.ErrNotFound),
		errors.Is(err, core.ErrUnknownUser),
		errors.Is(err, textindex.ErrDocNotFound):
		return &api.Error{Code: api.CodeNotFound, Message: err.Error()}, http.StatusNotFound
	case errors.Is(err, social.ErrInvalid),
		errors.Is(err, api.ErrBadCursor),
		errors.Is(err, hive.ErrNoJournal):
		return &api.Error{Code: api.CodeInvalidArgument, Message: err.Error()}, http.StatusBadRequest
	default:
		return &api.Error{Code: api.CodeInternal, Message: err.Error()}, http.StatusInternalServerError
	}
}

// writeErr maps a domain error to HTTP status + envelope.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	ae, status := classify(err)
	writeJSON(w, status, api.ErrorResponse{Error: ae, TraceID: traceID(r)})
}

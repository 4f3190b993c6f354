package metrics

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Request tracing: the server's request envelope mints (or adopts) a
// trace ID per request, carries a mutable *Trace through the request
// context, and hands the finished trace to a bounded Recorder. Handlers and the
// scatter-gather read path add named stages; the access log and error
// envelopes print the ID; GET /api/v1/debug/traces serves the slowest
// recent traces with their per-stage timings.
//
// Every *Trace method is nil-receiver safe, so instrumented code paths
// never need to check whether a trace is attached (background work —
// replication polls, compaction — runs traceless).

// NewTraceID returns a fresh 16-hex-char trace ID.
func NewTraceID() string {
	var buf [8]byte
	_, _ = rand.Read(buf[:])
	return hex.EncodeToString(buf[:])
}

// Stage is one named, timed step inside a trace.
type Stage struct {
	Name       string  `json:"name"`
	DurationUS float64 `json:"duration_us"`
}

// Trace accumulates one request's identity and stage timings. Safe for
// concurrent use (scatter-gather goroutines append stages in parallel).
type Trace struct {
	id     string
	method string
	start  time.Time

	mu     sync.Mutex
	shard  int
	stages []Stage
}

// NewTrace starts a trace. The shard is -1 until a handler resolves
// one.
func NewTrace(id, method string) *Trace {
	return &Trace{id: id, method: method, start: time.Now(), shard: -1}
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetShard records the shard a handler resolved for this request.
func (t *Trace) SetShard(shard int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard = shard
	t.mu.Unlock()
}

// Shard returns the resolved shard, -1 while unresolved or nil.
func (t *Trace) Shard() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shard
}

// AddStage appends a completed stage.
func (t *Trace) AddStage(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, DurationUS: float64(d.Nanoseconds()) / 1e3})
	t.mu.Unlock()
}

// StartStage starts a named stage; the returned func completes it.
func (t *Trace) StartStage(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddStage(name, time.Since(start)) }
}

// Finish freezes the trace into its recordable view.
func (t *Trace) Finish(route string, status int) TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceView{
		ID:         t.id,
		Method:     t.method,
		Route:      route,
		Status:     status,
		Shard:      t.shard,
		StartedAt:  t.start.UTC(),
		DurationUS: float64(time.Since(t.start).Nanoseconds()) / 1e3,
		Stages:     append([]Stage(nil), t.stages...),
	}
}

// TraceView is the immutable, JSON-serializable form of a finished
// trace — the element type of the debug/traces response.
type TraceView struct {
	ID         string    `json:"trace_id"`
	Method     string    `json:"method"`
	Route      string    `json:"route"`
	Status     int       `json:"status"`
	Shard      int       `json:"shard"` // -1: no shard resolved
	StartedAt  time.Time `json:"started_at"`
	DurationUS float64   `json:"duration_us"`
	Stages     []Stage   `json:"stages,omitempty"`
}

// --- Context plumbing ---------------------------------------------------------

type traceCtxKey struct{}

// ContextWithTrace attaches t to ctx.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil. All *Trace
// methods accept nil, so callers use the result unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// --- Recorder -----------------------------------------------------------------

// Recorder keeps the last N finished traces in a ring. Slowest returns
// them ordered by duration, so the debug endpoint surfaces the worst
// recent requests without unbounded memory.
type Recorder struct {
	mu   sync.Mutex
	ring []TraceView
	next int
	n    int
}

// DefaultTraceCapacity is the ring size the server uses.
const DefaultTraceCapacity = 256

// NewRecorder returns a recorder holding up to capacity traces.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]TraceView, capacity)}
}

// Record stores one finished trace, evicting the oldest when full.
func (r *Recorder) Record(v TraceView) {
	if v.ID == "" {
		return
	}
	r.mu.Lock()
	r.ring[r.next] = v
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Slowest returns up to n recent traces, slowest first (n <= 0 means
// all retained).
func (r *Recorder) Slowest(n int) []TraceView {
	r.mu.Lock()
	out := make([]TraceView, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[i])
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurationUS > out[j].DurationUS })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

package server

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"hive/api"
	"hive/internal/metrics"
)

// Middleware wraps a handler. The server composes its operational limits
// with Chain, inside the request envelope.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares so the first argument is the outermost.
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// envelope is the one layer every request passes through, outermost.
// It gives the request its one ID — the X-Hive-Trace-Id, adopted from
// the caller when well-formed, minted otherwise — and echoes it; it
// puts the request's time budget on the request's context; it hands the
// handler the one responseWriter; it answers a handler panic with a 500
// envelope, and a response the budget ran out on with a 503, while
// nothing of the response has been sent; and when the request ends it
// records the per-route request counter, the latency histogram, the
// finished trace and, with access set, one access-log line. None of this
// can be switched off: the budget and the access log are the optional
// parts.
type envelope struct {
	next    http.Handler
	routeOf func(*http.Request) string // bounded-cardinality route label
	budget  time.Duration              // per-request time budget; 0: none
	traces  *metrics.Recorder
	access  *log.Logger // nil: no access log
	errLog  *log.Logger // handler panics
	reqs    *metrics.CounterVec
	lat     *metrics.HistogramVec
}

// newEnvelope wraps next. routeOf maps a request to its route label (the
// mux pattern — never the raw URL, which would mint a label per user
// ID); "" labels it "unmatched".
func newEnvelope(next http.Handler, routeOf func(*http.Request) string, traces *metrics.Recorder, access *log.Logger) *envelope {
	return &envelope{
		next:    next,
		routeOf: routeOf,
		traces:  traces,
		access:  access,
		errLog:  log.Default(),
		reqs: metrics.Default.CounterVec(metrics.HTTPRequestsTotal,
			"HTTP requests by route pattern, method and status class.",
			"route", "method", "class"),
		lat: metrics.Default.HistogramVec(metrics.HTTPRequestSeconds,
			"HTTP request latency in seconds by route pattern.",
			nil, "route"),
	}
}

func (e *envelope) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(api.TraceHeader)
	if !validTraceID(id) {
		id = metrics.NewTraceID()
	}
	h := w.Header()
	h.Set(api.TraceHeader, id)
	h.Add("Vary", "Accept-Encoding")
	tr := metrics.NewTrace(id, r.Method)
	ctx := metrics.ContextWithTrace(r.Context(), tr)
	rw := &responseWriter{ResponseWriter: w, gzipOK: acceptsGzip(r.Header.Get("Accept-Encoding"))}
	if e.budget > 0 && !timeoutExempt(r.URL.Path) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.budget)
		defer cancel()
		rw.deadline, _ = ctx.Deadline()
	}
	r = r.WithContext(ctx)
	defer e.done(rw, r, tr)
	defer func() {
		if v := recover(); v != nil {
			e.recovered(rw, r, v)
		}
	}()
	e.next.ServeHTTP(rw, r)
	if rw.expired || !rw.sent && rw.late() {
		rw.reset()
		writeError(rw, r, http.StatusServiceUnavailable, api.CodeTimeout, "request exceeded the server's time budget")
	}
	rw.finish()
}

// recovered answers a handler panic. While the response is still held
// back, the client gets a plain 500 envelope in its place; once part of
// it has been sent, the connection is aborted, so the client sees a
// broken response and never a cleanly ended truncated one.
func (e *envelope) recovered(rw *responseWriter, r *http.Request, v any) {
	if v == http.ErrAbortHandler {
		panic(v)
	}
	e.errLog.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
	if rw.sent {
		panic(http.ErrAbortHandler)
	}
	rw.reset()
	writeError(rw, r, http.StatusInternalServerError, api.CodeInternal, "internal error")
	rw.finish()
}

// done records a finished request. The access-log line carries method,
// URI, status, wire bytes, duration, the request's ID and the resolved
// shard (-1 when no shard applies — unsharded writes, scatter reads).
func (e *envelope) done(rw *responseWriter, r *http.Request, tr *metrics.Trace) {
	status := rw.status
	if status == 0 {
		status = http.StatusOK
	}
	route := e.routeOf(r)
	if route == "" {
		route = "unmatched"
	}
	view := tr.Finish(route, status)
	e.reqs.With(route, r.Method, statusClass(status)).Inc()
	e.lat.With(route).Observe(view.DurationUS / 1e6)
	e.traces.Record(view)
	if e.access != nil {
		e.access.Printf("%s %s %d %dB %v trace=%s shard=%d",
			r.Method, r.URL.RequestURI(), status, rw.wire,
			time.Duration(view.DurationUS*1e3).Round(time.Microsecond), view.ID, view.Shard)
	}
}

// maxTraceIDLen bounds an adopted trace ID. The ID is kept in every
// retained trace and printed on every access-log line, so a caller must
// not be able to grow either with a header of its choosing.
const maxTraceIDLen = 64

// validTraceID reports whether an inbound trace ID may be adopted: 1 to
// maxTraceIDLen letters, digits, '-', '_' or '.'. The SDK's 16 hex
// characters qualify; anything else is replaced by a minted ID.
func validTraceID(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// statusClass buckets an HTTP status into its class label ("2xx"...).
func statusClass(status int) string {
	switch status / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	default:
		return "5xx"
	}
}

// MaxInFlight rejects requests beyond n concurrent ones with 503 — the
// load-shedding backstop that keeps a burst from queueing unboundedly.
func MaxInFlight(n int) Middleware {
	sem := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				writeError(w, r, http.StatusServiceUnavailable, api.CodeOverloaded,
					"too many in-flight requests")
			}
		})
	}
}

// RateLimit enforces a global token-bucket request rate: qps sustained,
// burst instantaneous. Excess requests get 429.
func RateLimit(qps float64, burst int) Middleware {
	if burst < 1 {
		burst = 1
	}
	tb := &tokenBucket{tokens: float64(burst), max: float64(burst), rate: qps, last: time.Now()}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !tb.allow(time.Now()) {
				writeError(w, r, http.StatusTooManyRequests, api.CodeRateLimited, "request rate limit exceeded")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	rate   float64
	last   time.Time
}

func (tb *tokenBucket) allow(now time.Time) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.max {
		tb.tokens = tb.max
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// gzipMinBytes is the smallest body sent gzip'd. Below it the gzip frame
// and the encoder's reset cost more than they save: a search page is
// ≈ 650 B plain, and a profile grows from 89 B to 107 B when gzip'd.
// From 1 KiB on — feed pages, peer recs, batch results, replication
// pages — a pooled gzipEncoder (gzip.go) compresses the body.
const gzipMinBytes = 1024

// gzPool recycles encoders across responses; each holds under 40 KB of
// window, table and output buffer.
var gzPool = sync.Pool{New: func() any { return new(gzipEncoder) }}

// responseWriter is the one wrapper around a response. It holds back
// the status and the first bytes until the body reaches gzipMinBytes or
// the handler returns. A body that reaches the threshold goes out
// gzip'd to a client that accepts gzip and identity to any other; a
// smaller one goes out identity with a Content-Length. Bodyless
// statuses (204, 304) are sent at once, so conditional GETs stay empty.
// Until the response is sent, a handler panic can still be answered
// with a clean 500 (envelope.recovered). It records the status and the
// bytes that reached the wire.
//
// It also enforces the request's time budget, on the handler's own
// goroutine: a response still held back when the deadline has passed is
// not sent. The check runs where the response would be committed — at
// the 1 KiB threshold, at a bodyless status and when the handler returns
// — and from then on the handler's writes fail with
// http.ErrHandlerTimeout and the envelope answers 503 timeout. A
// response committed before the deadline completes.
type responseWriter struct {
	http.ResponseWriter
	gzipOK   bool         // the client accepts gzip
	deadline time.Time    // the request's budget ends; zero: no budget
	expired  bool         // the deadline passed before the commit
	status   int          // the first status set; 0 until WriteHeader or Write
	buf      []byte       // held-back body, under gzipMinBytes
	sent     bool         // status and headers have gone to the client
	gz       *gzipEncoder // the body's gzip stream, once committed to gzip
	wire     int          // body bytes written to the connection
}

// late reports whether the request's deadline has passed.
func (rw *responseWriter) late() bool {
	return !rw.deadline.IsZero() && !time.Now().Before(rw.deadline)
}

// reset drops a held-back response, its status and every header the
// handler set, so the envelope can answer in its place.
func (rw *responseWriter) reset() {
	h := rw.Header()
	for k := range h {
		if k != api.TraceHeader && k != "Vary" {
			delete(h, k)
		}
	}
	rw.status, rw.buf, rw.expired, rw.deadline = 0, nil, false, time.Time{}
}

func (rw *responseWriter) WriteHeader(code int) {
	if rw.status != 0 || rw.expired { // the first status wins, as on a plain ResponseWriter
		return
	}
	rw.status = code
	if code == http.StatusNoContent || code == http.StatusNotModified {
		if rw.expired = rw.late(); !rw.expired {
			rw.send()
		}
	}
}

func (rw *responseWriter) Write(b []byte) (int, error) {
	if rw.expired {
		return 0, http.ErrHandlerTimeout
	}
	if !rw.sent {
		rw.WriteHeader(http.StatusOK) // implicit, unless a status is held
		if len(rw.buf)+len(b) < gzipMinBytes {
			rw.buf = append(rw.buf, b...)
			return len(b), nil
		}
		if rw.expired = rw.late(); rw.expired {
			rw.buf = nil
			return 0, http.ErrHandlerTimeout
		}
		if rw.gzipOK {
			h := rw.Header()
			h.Del("Content-Length")
			h.Set("Content-Encoding", "gzip")
			rw.gz = gzPool.Get().(*gzipEncoder)
			rw.gz.Reset(wireWriter{rw})
		}
		rw.send()
		if held := rw.buf; len(held) > 0 {
			rw.buf = nil
			if _, err := rw.body(held); err != nil {
				return 0, err
			}
		}
	}
	return rw.body(b)
}

// send commits the held status and the headers.
func (rw *responseWriter) send() {
	rw.sent = true
	rw.ResponseWriter.WriteHeader(rw.status)
}

// body writes past the hold-back: into the gzip stream when there is
// one, else straight to the wire.
func (rw *responseWriter) body(b []byte) (int, error) {
	if rw.gz != nil {
		return rw.gz.Write(b)
	}
	return wireWriter{rw}.Write(b)
}

// finish completes a response whose handler returned: it closes the
// gzip stream, or sends the held-back response identity.
func (rw *responseWriter) finish() {
	switch {
	case rw.gz != nil:
		_ = rw.gz.Close()
		gzPool.Put(rw.gz)
		rw.gz = nil
	case !rw.sent:
		rw.WriteHeader(http.StatusOK)
		rw.Header().Set("Content-Length", strconv.Itoa(len(rw.buf)))
		rw.send()
		if len(rw.buf) > 0 {
			_, _ = rw.body(rw.buf)
		}
	}
}

// wireWriter writes to the connection and counts what reached it.
type wireWriter struct{ rw *responseWriter }

func (w wireWriter) Write(b []byte) (int, error) {
	n, err := w.rw.ResponseWriter.Write(b)
	w.rw.wire += n
	return n, err
}

// acceptsGzip parses Accept-Encoding far enough to honor an explicit
// refusal: "gzip;q=0" declares gzip unacceptable, which a bare
// substring test would read as consent.
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(name) != "gzip" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok && strings.TrimSpace(k) == "q" {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

package server

import (
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
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

// Middleware wraps a handler. The server composes its stack with Chain;
// individual middlewares are exported-in-spirit (package-local) building
// blocks with no coupling to the Platform.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares so the first argument is the outermost.
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// ctxKey namespaces context values.
type ctxKey int

const ctxRequestID ctxKey = iota

// requestIDFrom returns the request ID assigned by the RequestID
// middleware ("" outside it).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxRequestID).(string)
	return id
}

// RequestID tags every request with an ID — propagated from the
// client's X-Request-ID when present, generated otherwise — echoed on
// the response and available to downstream handlers via the context.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			var buf [8]byte
			_, _ = rand.Read(buf[:])
			id = hex.EncodeToString(buf[:])
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxRequestID, id)))
	})
}

// statusWriter records the response status and size for logging and
// panic recovery.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

// AccessLog writes one line per request: method, path, status, bytes,
// duration, request ID, end-to-end trace ID and the resolved shard
// (-1 when no shard applies — unsharded deployments, scatter reads).
func AccessLog(l *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			tr := metrics.TraceFrom(r.Context())
			trace := tr.ID()
			if trace == "" {
				trace = "-"
			}
			l.Printf("%s %s %d %dB %v rid=%s trace=%s shard=%d",
				r.Method, r.URL.RequestURI(), status, sw.bytes,
				time.Since(start).Round(time.Microsecond), requestIDFrom(r.Context()),
				trace, tr.Shard())
		})
	}
}

// Observe is the instrumentation middleware: it adopts (or mints) the
// request's X-Hive-Trace-Id, echoes it on the response, carries a
// mutable trace through the context for handlers to annotate (resolved
// shard, scatter stage timings), and on completion records the
// per-route request counter, the status class, the latency histogram
// and the finished trace. routeOf maps a request to its bounded-
// cardinality route label (the mux pattern — never the raw URL, which
// would mint a label per user ID).
func Observe(reg *metrics.Registry, rec *metrics.Recorder, routeOf func(*http.Request) string) Middleware {
	reqs := reg.CounterVec(metrics.HTTPRequestsTotal,
		"HTTP requests by route pattern, method and status class.",
		"route", "method", "class")
	lat := reg.HistogramVec(metrics.HTTPRequestSeconds,
		"HTTP request latency in seconds by route pattern.",
		nil, "route")
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(api.TraceHeader)
			if id == "" {
				id = metrics.NewTraceID()
			}
			w.Header().Set(api.TraceHeader, id)
			tr := metrics.NewTrace(id, r.Method)
			r = r.WithContext(metrics.ContextWithTrace(r.Context(), tr))
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			dur := time.Since(start)
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			route := routeOf(r)
			if route == "" {
				route = "unmatched"
			}
			reqs.With(route, r.Method, statusClass(status)).Inc()
			lat.With(route).ObserveDuration(dur)
			rec.Record(tr.Finish(route, status))
		})
	}
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

// Recover converts handler panics into a 500 error envelope (when no
// response has started) instead of tearing down the connection.
func Recover(l *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				v := recover()
				if v == nil || v == http.ErrAbortHandler {
					if v != nil {
						panic(v)
					}
					return
				}
				if l != nil {
					l.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				}
				if sw.status == 0 {
					writeError(sw, r, http.StatusInternalServerError, api.CodeInternal, "internal error")
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// Timeout bounds a request's handling time; on expiry the client gets a
// 503 with a timeout-coded envelope and the handler's late writes are
// discarded (http.TimeoutHandler semantics).
func Timeout(d time.Duration) Middleware {
	body, _ := json.Marshal(api.ErrorResponse{Error: &api.Error{
		Code:    api.CodeTimeout,
		Message: "request exceeded the server's time budget",
	}})
	return func(next http.Handler) http.Handler {
		return http.TimeoutHandler(next, d, string(body))
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

// gzipMinBytes is the smallest body Gzip compresses. Below it the gzip
// frame and the per-response deflate reset cost more than they save: a
// search page is ≈ 650 B plain, and a profile grows from 89 B to 107 B
// when gzip'd.
const gzipMinBytes = 1024

// Gzip compresses responses of at least gzipMinBytes for clients that
// accept gzip; smaller bodies go out identity with a Content-Length.
// The status and the first bytes are held back until the body reaches
// the threshold (Content-Encoding: gzip is committed then) or the
// handler returns (identity). Nothing is committed for a handler that
// panics: an outer Recover still answers with a plain 500 envelope, not
// a 200 with a truncated body. Bodyless statuses (1xx, 204, 304) pass
// through untouched so conditional GETs stay empty. Every response
// carries Vary: Accept-Encoding.
func Gzip(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !acceptsGzip(r.Header.Get("Accept-Encoding")) {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipWriter{ResponseWriter: w}
		next.ServeHTTP(gw, r)
		gw.finish()
	})
}

// gzPool recycles gzip writers across responses. A fresh gzip.Writer
// allocates its whole deflate state (~hundreds of KB); paying that per
// response made the allocator, not the handler, the throughput ceiling
// under concurrent writes — pooling keeps compression off the write
// path's critical section.
var gzPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// gzipWriter defers the encoding decision until the body's size is
// known to be at least gzipMinBytes or the handler is done.
type gzipWriter struct {
	http.ResponseWriter
	status      int          // held-back status; 0 until WriteHeader or Write
	buf         []byte       // held-back body, under gzipMinBytes
	gz          *gzip.Writer // set once the response is committed to gzip
	passthrough bool         // bodyless status: everything goes straight through
}

func (g *gzipWriter) WriteHeader(code int) {
	switch {
	case g.passthrough:
		g.ResponseWriter.WriteHeader(code)
	case g.status != 0: // the first status wins, as on a plain ResponseWriter
	case code == http.StatusNoContent || code == http.StatusNotModified || code < http.StatusOK:
		g.passthrough = true
		g.ResponseWriter.WriteHeader(code)
	default:
		g.status = code
	}
}

func (g *gzipWriter) Write(b []byte) (int, error) {
	switch {
	case g.passthrough:
		return g.ResponseWriter.Write(b)
	case g.gz != nil:
		return g.gz.Write(b)
	}
	g.WriteHeader(http.StatusOK) // implicit, unless a status is held
	if len(g.buf)+len(b) < gzipMinBytes {
		g.buf = append(g.buf, b...)
		return len(b), nil
	}
	h := g.Header()
	h.Del("Content-Length")
	h.Set("Content-Encoding", "gzip")
	g.ResponseWriter.WriteHeader(g.status)
	g.gz = gzPool.Get().(*gzip.Writer)
	g.gz.Reset(g.ResponseWriter)
	if len(g.buf) > 0 {
		if _, err := g.gz.Write(g.buf); err != nil {
			return 0, err
		}
		g.buf = nil
	}
	return g.gz.Write(b)
}

// finish completes a response whose handler returned normally: it closes
// the gzip stream, or sends the held-back body identity.
func (g *gzipWriter) finish() {
	switch {
	case g.gz != nil:
		_ = g.gz.Close()
		gzPool.Put(g.gz)
		g.gz = nil
	case g.passthrough:
	default:
		g.WriteHeader(http.StatusOK)
		g.Header().Set("Content-Length", strconv.Itoa(len(g.buf)))
		g.ResponseWriter.WriteHeader(g.status)
		if len(g.buf) > 0 {
			_, _ = g.ResponseWriter.Write(g.buf)
		}
	}
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

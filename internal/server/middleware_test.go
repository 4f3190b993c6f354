package server

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hive/api"
	"hive/internal/metrics"
)

// wrap serves h inside the request envelope, with its panic log
// silenced.
func wrap(h http.Handler) http.Handler { return wrapBudget(h, 0) }

// wrapBudget is wrap with a per-request time budget (0: none).
func wrapBudget(h http.Handler, budget time.Duration) *envelope {
	e := newEnvelope(h, func(*http.Request) string { return "" }, metrics.NewRecorder(1), nil)
	e.errLog = log.New(io.Discard, "", 0)
	e.budget = budget
	return e
}

func envelopeCode(t *testing.T, body io.Reader) string {
	t.Helper()
	var env api.ErrorResponse
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error == nil {
		t.Fatal("no error in envelope")
	}
	return env.Error.Code
}

func TestRecoverMiddleware(t *testing.T) {
	h := wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if code := envelopeCode(t, rec.Body); code != api.CodeInternal {
		t.Fatalf("code = %q", code)
	}
}

// TestTimeoutMiddleware: a request over its budget gets the 503 timeout
// envelope, which carries the request's ID like every other envelope.
func TestTimeoutMiddleware(t *testing.T) {
	h := wrapBudget(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}), 20*time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", rec.Code)
	}
	var env api.ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != api.CodeTimeout {
		t.Fatalf("envelope %+v (%v), want code %q", env, err, api.CodeTimeout)
	}
	if id := rec.Header().Get(api.TraceHeader); id == "" || env.TraceID != id {
		t.Fatalf("timeout envelope trace_id %q, response ID %q", env.TraceID, id)
	}
}

// TestTimeoutAfterLateWrites: a handler that ignores its context and
// writes only after the deadline — a small body held back whole, or one
// that crosses the 1 KiB commit — gets the 503 timeout envelope with the
// request's trace_id, and none of its own body or headers.
func TestTimeoutAfterLateWrites(t *testing.T) {
	for _, n := range []int{100, 3000} {
		h := wrapBudget(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
			w.Header().Set("ETag", `"late"`)
			_, _ = io.WriteString(w, strings.Repeat("x", n))
		}), 10*time.Millisecond)
		req := httptest.NewRequest("GET", "/late", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("ETag") != "" || rec.Header().Get("Content-Encoding") != "" {
			t.Fatalf("%d B late: status %d, headers %v", n, rec.Code, rec.Header())
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != api.CodeTimeout {
			t.Fatalf("%d B late: envelope %+v (%v), want code %q", n, env, err, api.CodeTimeout)
		}
		if id := rec.Header().Get(api.TraceHeader); id == "" || env.TraceID != id {
			t.Fatalf("%d B late: trace_id %q, response ID %q", n, env.TraceID, id)
		}
	}
}

// goroutineID parses the calling goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestTimeoutRunsOnRequestGoroutine: a budgeted request's handler runs
// on the goroutine that serves the request, with no goroutine of the
// budget's own beside it.
func TestTimeoutRunsOnRequestGoroutine(t *testing.T) {
	var handler string
	var during int
	h := wrapBudget(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler, during = goroutineID(), runtime.NumGoroutine()
		_, _ = io.WriteString(w, "ok")
	}), time.Minute)
	before := runtime.NumGoroutine()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if self := goroutineID(); handler != self || during != before {
		t.Fatalf("handler ran on goroutine %s beside %d goroutines; request on %s beside %d", handler, during, self, before)
	}
}

func TestMaxInFlightMiddleware(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}), MaxInFlight(1))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the slot is held
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d", resp.StatusCode)
	}
	if code := envelopeCode(t, resp.Body); code != api.CodeOverloaded {
		t.Fatalf("code = %q", code)
	}
	close(release)
	wg.Wait()
}

func TestRateLimitMiddleware(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), RateLimit(0.001, 1)) // one token, refills far too slowly to matter
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("first request = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d", rec.Code)
	}
	if code := envelopeCode(t, rec.Body); code != api.CodeRateLimited {
		t.Fatalf("code = %q", code)
	}
}

func TestGzipMiddleware(t *testing.T) {
	payload := strings.Repeat("compress me please ", 200)
	h := wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, payload)
	}))

	// Client accepts gzip: body arrives compressed.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q", got)
	}
	if rec.Body.Len() >= len(payload) {
		t.Fatalf("body not compressed: %d >= %d", rec.Body.Len(), len(payload))
	}
	gr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(gr)
	if err != nil || string(plain) != payload {
		t.Fatalf("roundtrip: %v, %d bytes", err, len(plain))
	}

	// Client without gzip support: passthrough.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Header().Get("Content-Encoding") != "" || rec.Body.String() != payload {
		t.Fatal("non-gzip client got transformed body")
	}

	// Explicit refusal (q=0) must not be read as consent.
	req = httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Accept-Encoding", "gzip;q=0, identity")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get("Content-Encoding") != "" || rec.Body.String() != payload {
		t.Fatal("gzip;q=0 client got a compressed body")
	}
}

// TestGzipThreshold: a body of at least gzipMinBytes goes out gzip'd, a
// smaller one identity with its Content-Length, however the handler
// splits its writes; bodyless statuses pass through, a refusing client
// gets identity at any size, and a time budget changes nothing.
// Every response varies on Accept-Encoding and round-trips byte-exact.
func TestGzipThreshold(t *testing.T) {
	body := func(n int) string { return strings.Repeat("abcdefghijklmnopqrstuvwxyz0123456789\n", n/37+1)[:n] }
	writes := func(status int, parts ...string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			if status != 0 {
				w.WriteHeader(status)
			}
			for _, p := range parts {
				_, _ = io.WriteString(w, p)
			}
		}
	}
	gz := func(status int, parts ...string) http.Handler { return wrap(writes(status, parts...)) }
	for _, tc := range []struct {
		name     string
		h        http.Handler
		accept   string
		status   int
		want     string
		wantGzip bool
		cl       string // Content-Length of an identity response
	}{
		{"empty", gz(http.StatusCreated), "gzip", http.StatusCreated, "", false, "0"},
		{"1023B", gz(0, body(1023)), "gzip", http.StatusOK, body(1023), false, "1023"},
		{"1024B", gz(0, body(1024)), "gzip", http.StatusOK, body(1024), true, ""},
		{"three writes cross together", gz(http.StatusAccepted, body(400), body(400), body(400)), "gzip", http.StatusAccepted, body(400) + body(400) + body(400), true, ""},
		{"three writes stay under", gz(0, body(300), body(300), body(300)), "gzip", http.StatusOK, body(300) + body(300) + body(300), false, "900"},
		{"one large write", gz(0, body(4000)), "gzip", http.StatusOK, body(4000), true, ""},
		{"204", gz(http.StatusNoContent), "gzip", http.StatusNoContent, "", false, ""},
		{"304", gz(http.StatusNotModified), "gzip", http.StatusNotModified, "", false, ""},
		// A refusing client gets identity; past the threshold it streams.
		{"refused q=0", gz(0, body(4000)), "gzip;q=0", http.StatusOK, body(4000), false, ""},
		// Under a budget the envelope holds, the response is the same.
		{"under Timeout small", wrapBudget(writes(0, body(100)), time.Second), "gzip", http.StatusOK, body(100), false, "100"},
		{"under Timeout large", wrapBudget(writes(0, body(1500), body(1500)), time.Second), "gzip", http.StatusOK, body(1500) + body(1500), true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", "/", nil)
			req.Header.Set("Accept-Encoding", tc.accept)
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, req)
			res := rec.Result()
			if res.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", res.StatusCode, tc.status)
			}
			if v := res.Header.Values("Vary"); len(v) != 1 || v[0] != "Accept-Encoding" {
				t.Fatalf("Vary = %q", v)
			}
			got := rec.Body.Bytes()
			if enc := res.Header.Get("Content-Encoding"); tc.wantGzip {
				if enc != "gzip" || res.Header.Get("Content-Length") != "" {
					t.Fatalf("Content-Encoding = %q, Content-Length = %q; want gzip, none", enc, res.Header.Get("Content-Length"))
				}
				gr, err := gzip.NewReader(rec.Body)
				if err != nil {
					t.Fatal(err)
				}
				if got, err = io.ReadAll(gr); err != nil {
					t.Fatal(err)
				}
			} else {
				if enc != "" {
					t.Fatalf("Content-Encoding = %q, want identity", enc)
				}
				if cl := res.Header.Get("Content-Length"); cl != tc.cl {
					t.Fatalf("Content-Length = %q, want %q", cl, tc.cl)
				}
			}
			if string(got) != tc.want {
				t.Fatalf("round trip: got %d bytes, want %d", len(got), len(tc.want))
			}
		})
	}
}

// TestRecoverAfterSmallWriteThroughGzip: a handler that commits a status
// and a few bytes, then panics, must still get a plain 500 envelope,
// whether or not the client accepts gzip. The response writer holds
// small bodies back for every client and sends them only on a normal
// return, so nothing of the broken response reaches the client: no 200
// carrying a truncated body, gzip'd or not.
func TestRecoverAfterSmallWriteThroughGzip(t *testing.T) {
	h := wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"items":[`)
		panic("kaboom")
	}))
	for _, accept := range []string{"gzip", ""} {
		req := httptest.NewRequest("GET", "/x", nil)
		req.Header.Set("Accept-Encoding", accept)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("Accept-Encoding %q: status = %d, want 500", accept, rec.Code)
		}
		if enc := rec.Header().Get("Content-Encoding"); enc != "" {
			t.Fatalf("Accept-Encoding %q: panic response claims Content-Encoding %q", accept, enc)
		}
		if code := envelopeCode(t, rec.Body); code != api.CodeInternal {
			t.Fatalf("Accept-Encoding %q: code = %q", accept, code)
		}
	}
}

// TestPanicAfterSendAbortsConnection: once a body has passed the
// hold-back threshold part of it may be on the wire, and a panic can no
// longer be answered with a 500. The connection is aborted instead, so
// the client sees a failed request, gzip or not, never a complete-looking
// response with a truncated body.
func TestPanicAfterSendAbortsConnection(t *testing.T) {
	ts := httptest.NewServer(wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, strings.Repeat("x", 2*gzipMinBytes))
		panic("kaboom")
	})))
	defer ts.Close()
	for _, compress := range []bool{true, false} {
		c := &http.Client{Transport: &http.Transport{DisableCompression: !compress}}
		resp, err := c.Get(ts.URL)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			t.Errorf("gzip %v: a handler that panicked mid-body answered %d with a complete body", compress, resp.StatusCode)
		}
		c.CloseIdleConnections()
	}
}

func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate", true},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0, identity", false},
		{"deflate", false},
		{"x-gzip-like", false},
	} {
		if got := acceptsGzip(tc.header); got != tc.want {
			t.Fatalf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestGzip304StaysEmpty: conditional responses must not grow a gzip
// frame (a 304 with a body would be a protocol violation).
func TestGzip304StaysEmpty(t *testing.T) {
	h := wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes", rec.Body.Len())
	}
	if rec.Header().Get("Content-Encoding") == "gzip" {
		t.Fatal("304 claims gzip encoding")
	}
}

// TestRecoverThroughGzipStaysReadable: a panic before any write must
// yield a plain-JSON 500 envelope with no stray Content-Encoding — the
// response writer may only commit the header for responses it actually
// compresses.
func TestRecoverThroughGzipStaysReadable(t *testing.T) {
	h := wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("panic response claims Content-Encoding %q", enc)
	}
	if code := envelopeCode(t, rec.Body); code != api.CodeInternal {
		t.Fatalf("code = %q", code)
	}
}

func TestChainOrder(t *testing.T) {
	var trace []string
	mk := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				trace = append(trace, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace = append(trace, "handler")
	}), mk("outer"), mk("inner"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if strings.Join(trace, ",") != "outer,inner,handler" {
		t.Fatalf("trace = %v", trace)
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/metrics"
)

// TestCapExemptPaths pins which paths bypass the in-flight and QPS
// caps: replication traffic (a parked long-poll would burn a slot
// forever) and the metrics scrape (shedding it blinds the operator
// exactly when the server is busiest). Everything else sheds.
func TestCapExemptPaths(t *testing.T) {
	for path, want := range map[string]bool{
		"/metrics":                     true,
		"/api/v1/replication/events":   true,
		"/api/v1/replication/snapshot": true,
		"/api/v1/users":                false,
		"/api/v1/search":               false,
		"/api/v1/debug/traces":         false,
		"/metricsfoo":                  false,
	} {
		if got := capExempt(path); got != want {
			t.Errorf("capExempt(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestMetricsExemptFromInFlightCap: with the only in-flight slot held
// by a parked request, /metrics and the replication feed still answer
// while ordinary routes shed with 503.
func TestMetricsExemptFromInFlightCap(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/users" && r.URL.Query().Get("park") == "1" {
			close(entered)
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}), exceptPaths(MaxInFlight(1), capExempt))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/api/v1/users?park=1")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the slot is held
	defer func() { close(release); wg.Wait() }()

	for path, want := range map[string]int{
		"/metrics":                   http.StatusOK,
		"/api/v1/replication/events": http.StatusOK,
		"/api/v1/users":              http.StatusServiceUnavailable,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s under full in-flight cap: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestMetricsExemptFromRateLimit: with the QPS token bucket drained,
// the scrape and the replication feed still answer while ordinary
// routes get 429.
func TestMetricsExemptFromRateLimit(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), exceptPaths(RateLimit(0.001, 1), capExempt))
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/api/v1/users"); got != http.StatusOK {
		t.Fatalf("first request burned no token? status %d", got)
	}
	if got := get("/api/v1/users"); got != http.StatusTooManyRequests {
		t.Fatalf("drained bucket did not shed: status %d", got)
	}
	for _, path := range []string{"/metrics", "/api/v1/replication/events", "/api/v1/replication/snapshot"} {
		if got := get(path); got != http.StatusOK {
			t.Errorf("%s sheds under a drained bucket: status %d", path, got)
		}
	}
}

// TestRuntimeGauges: every scrape carries the Go runtime's live heap,
// goroutine count and completed GC cycles, each present and non-zero
// once a GC has run.
func TestRuntimeGauges(t *testing.T) {
	ts, _ := newShardedServer(t, 1)
	runtime.GC()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metrics.GoHeapLiveBytes, metrics.GoGoroutines, metrics.GoGCCyclesTotal} {
		var v float64
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				if v, err = strconv.ParseFloat(rest, 64); err != nil {
					t.Fatalf("unparsable sample %q", line)
				}
			}
		}
		if v <= 0 {
			t.Errorf("%s = %v, want a positive sample", name, v)
		}
	}
}

// TestStoreImageGauge: every scrape carries each shard's kv image size,
// and the size of the shard a write lands on grows with it.
func TestStoreImageGauge(t *testing.T) {
	for _, n := range []int{1, 4} {
		ts, sh := newShardedServer(t, n)
		image := func() []float64 {
			t.Helper()
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, n)
			for i := range out {
				series := fmt.Sprintf("%s{shard=%q} ", metrics.StoreImageBytes, strconv.Itoa(i))
				for _, line := range strings.Split(string(raw), "\n") {
					if rest, ok := strings.CutPrefix(line, series); ok {
						if out[i], err = strconv.ParseFloat(rest, 64); err != nil {
							t.Fatalf("unparsable sample %q", line)
						}
					}
				}
				if out[i] <= 0 {
					t.Fatalf("shards=%d: no positive %s sample for shard %d", n, metrics.StoreImageBytes, i)
				}
			}
			return out
		}
		before := image()
		if err := sh.RegisterUser(hive.User{ID: "alice", Name: "Alice", Interests: []string{"graph mining"}}); err != nil {
			t.Fatal(err)
		}
		home := api.ShardOf("alice", n)
		if after := image(); after[home] <= before[home] {
			t.Errorf("shards=%d: shard %d image %v B after a write, %v B before", n, home, after[home], before[home])
		}
	}
}

// TestMetricsEndpoint drives real requests through a full server and
// asserts the exposition covers them: per-route counters and latency
// histograms plus the scrape-time state gauges of every shard, in the
// Prometheus text format, and a bad_request 400 that carries the trace
// ID and counts as 4xx — at one shard and at four, where the
// scatter-gather histogram and the trace's fan-out stages join in. The
// registry is process-wide and other tests (and reruns under -count)
// contribute to the same series, so the counter assertions are deltas
// across a scrape pair, not absolute values.
func TestMetricsEndpoint(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { metricsEndpoint(t, n) })
	}
}

func metricsEndpoint(t *testing.T, shards int) {
	ts, sh := newShardedServer(t, shards)
	if err := sh.RegisterUser(hive.User{ID: "alice"}); err != nil {
		t.Fatal(err)
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("Content-Type = %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	// sample returns the value of one fully-labeled series (0 when the
	// series has not been resolved yet).
	sample := func(body, series string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					t.Fatalf("unparsable sample %q", line)
				}
				return v
			}
		}
		return 0
	}

	before := scrape()
	for _, path := range []string{"/api/v1/users/alice", "/api/v1/users/ghost"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	body := scrape()

	const (
		ok2xx = `hive_http_requests_total{route="/api/v1/users/{id}",method="GET",class="2xx"}`
		nf4xx = `hive_http_requests_total{route="/api/v1/users/{id}",method="GET",class="4xx"}`
		inf   = `hive_http_request_seconds_bucket{route="/api/v1/users/{id}",le="+Inf"}`
	)
	for series, want := range map[string]float64{ok2xx: 1, nf4xx: 1, inf: 2} {
		if got := sample(body, series) - sample(before, series); got != want {
			t.Errorf("%s advanced by %g, want %g", series, got, want)
		}
	}
	want := []string{"# TYPE hive_http_request_seconds histogram", "hive_replication_lag_events"}
	for s := 0; s < shards; s++ {
		for _, g := range []string{"hive_shard_docs", "hive_overlay_docs", "hive_commit_index"} {
			want = append(want, fmt.Sprintf(`%s{shard="%d"} `, g, s))
		}
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", w, body)
		}
	}

	// A malformed body: the 400 envelope echoes the caller's trace ID
	// and counts into the route's 4xx class.
	const tid, paper4xx = "feedfacecafebeef", `hive_http_requests_total{route="/api/v1/papers",method="POST",class="4xx"}`
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/papers",
		strings.NewReader(`{"id":"p-broken","title":`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.TraceHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil ||
		resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeBadRequest || env.TraceID != tid {
		t.Fatalf("malformed body: status %d, envelope %+v (%v), want 400 bad_request carrying trace_id %s", resp.StatusCode, env, err, tid)
	}
	after := scrape()
	if got := sample(after, paper4xx) - sample(body, paper4xx); got != 1 {
		t.Errorf("%s advanced by %g over one bad_request, want 1", paper4xx, got)
	}
	if shards == 1 {
		return
	}

	// A search through the SDK fans out: the scatter histogram advances
	// and the trace the SDK minted carries the per-shard stages.
	const fanout = `hive_scatter_fanout_seconds_count{op="search"}`
	c := client.New(ts.URL)
	if _, err := c.Search(context.Background(), "anything", "", "", 5); err != nil {
		t.Fatal(err)
	}
	if got := sample(scrape(), fanout) - sample(after, fanout); got < 1 {
		t.Errorf("%s advanced by %g over a search, want >= 1", fanout, got)
	}
	tr := recordedTrace(t, ts.URL, c.LastTraceID())
	fanned := false
	for _, st := range tr.Stages {
		fanned = fanned || strings.HasPrefix(st.Name, "search_shard")
	}
	if tr.Route != "/api/v1/search" || !fanned {
		t.Errorf("search trace = route %q, stages %+v, want search_shard* fan-out stages", tr.Route, tr.Stages)
	}
}

// recordedTrace returns the debug/traces entry for one trace ID.
func recordedTrace(t *testing.T, base, tid string) api.TraceInfo {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/debug/traces?n=256")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report api.TraceReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	for _, tr := range report.Traces {
		if tr.TraceID == tid {
			return tr
		}
	}
	t.Fatalf("trace %q not in %s/api/v1/debug/traces (%d retained)", tid, base, len(report.Traces))
	return api.TraceInfo{}
}

// TestTraceEndToEnd: an inbound X-Hive-Trace-Id is adopted, echoed on
// the response, stamped into the error envelope, and lands in the
// debug/traces ring with the route it hit.
func TestTraceEndToEnd(t *testing.T) {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(NewWith(p, Config{}))
	defer ts.Close()

	const tid = "cafef00ddeadbeef"
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/users/ghost", nil)
	req.Header.Set(api.TraceHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(api.TraceHeader); got != tid {
		t.Fatalf("trace not echoed: %q", got)
	}
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.TraceID != tid {
		t.Fatalf("envelope trace_id = %q, want %q", env.TraceID, tid)
	}

	tresp, err := http.Get(ts.URL + "/api/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var report api.TraceReport
	if err := json.NewDecoder(tresp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range report.Traces {
		if tr.TraceID == tid {
			found = true
			if tr.Route != "/api/v1/users/{id}" || tr.Status != http.StatusNotFound {
				t.Fatalf("recorded trace wrong: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in debug/traces (%d retained)", tid, len(report.Traces))
	}
}

// TestTraceMintedWhenAbsent: a request without the header gets a
// server-minted ID echoed back.
func TestTraceMintedWhenAbsent(t *testing.T) {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(NewWith(p, Config{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.TraceHeader); len(got) != 16 {
		t.Fatalf("minted trace ID = %q, want 16 hex chars", got)
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hive"
	"hive/internal/workload"
)

func newLoadedServer(t *testing.T, users int) (*httptest.Server, *hive.Platform) {
	t.Helper()
	p := loadedPlatform(t, users)
	ts := httptest.NewServer(New(p))
	t.Cleanup(ts.Close)
	return ts, p
}

// loadedPlatform is an in-memory platform seeded with the synthetic
// conference workload and built, closed at cleanup.
func loadedPlatform(tb testing.TB, users int) *hive.Platform {
	tb.Helper()
	p, err := hive.Open(hive.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	if err := ds.Load(p.Store()); err != nil {
		tb.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestRefreshUnderLoad hammers read endpoints from many goroutines
// while the engine is rebuilt in a loop, interleaved with writes that
// keep marking the snapshot stale. Every read must succeed (no 5xx) —
// reads are served from the previous snapshot for the entire rebuild —
// and the serving snapshot must never be nil or half-built. Run under
// -race this also proves the swap is data-race free.
func TestRefreshUnderLoad(t *testing.T) {
	ts, p := newLoadedServer(t, 16)
	uid := p.Users()[0]

	paths := []string{
		"/api/v1/search?q=graph&limit=3&user=" + uid,
		"/api/v1/users/" + uid + "/recommendations/peers?limit=3",
		"/api/v1/relationship?a=" + p.Users()[0] + "&b=" + p.Users()[1],
		"/api/v1/communities",
		"/api/v1/healthz",
	}

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := ts.URL + paths[(r+i)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
				reads.Add(1)
			}
		}(r)
	}

	// Rebuild loop: each iteration writes (marking the snapshot stale)
	// and refreshes, swapping a new snapshot in under the readers.
	for i := 0; i < 4; i++ {
		if err := p.RegisterUser(hive.User{ID: fmt.Sprintf("burst%d", i), Name: "B"}); err != nil {
			t.Fatal(err)
		}
		if p.Snapshot() == nil {
			t.Fatal("nil snapshot while rebuilding")
		}
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reads completed during the rebuild loop")
	}
}

// TestAdminRefreshEndpoint covers the async admin trigger and its
// synchronous ?wait=true form.
func TestAdminRefreshEndpoint(t *testing.T) {
	ts, p := newLoadedServer(t, 8)
	gen := p.Generation()

	// Mark stale, then trigger an async rebuild: 202 immediately.
	if err := p.RegisterUser(hive.User{ID: "async", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/admin/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async refresh status = %d, want 202", resp.StatusCode)
	}

	// The synchronous form blocks until the swap is live.
	resp, err = http.Post(ts.URL+"/api/v1/admin/refresh?wait=true", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync refresh status = %d, want 200", resp.StatusCode)
	}
	if p.Generation() == gen {
		t.Fatal("generation did not advance after admin refresh")
	}
	if p.Stale() {
		t.Fatal("snapshot still stale after sync admin refresh")
	}
}

// TestWriteVisibleWithoutRefresh is the delta pipeline's end-to-end
// contract at the HTTP layer: a POSTed paper is searchable on the very
// next request, with no admin refresh and no auto-refresh loop —
// the mutation's change events fold into the serving snapshot before
// the POST returns.
func TestWriteVisibleWithoutRefresh(t *testing.T) {
	ts, p := newLoadedServer(t, 8)
	uid := p.Users()[0]

	body := fmt.Sprintf(`{"id":"p-live","title":"Zero refresh visibility","abstract":"deltaveritas overlay","authors":[%q]}`, uid)
	resp, err := http.Post(ts.URL+"/api/v1/papers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create paper: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/api/v1/search?q=deltaveritas&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Items []struct {
			DocID string `json:"DocID"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 1 || page.Items[0].DocID != "paper/p-live" {
		t.Fatalf("write not visible in search: %+v", page.Items)
	}
	if p.Stale() {
		t.Fatal("platform stale right after a delta-applied write")
	}
	if p.DeltasApplied() == 0 {
		t.Fatal("no delta swap recorded for the write")
	}
}

// TestHealthzReportsDeltaState checks the new healthz surface: overlay
// size, pending events, delta latency and compaction counters.
func TestHealthzReportsDeltaState(t *testing.T) {
	ts, p := newLoadedServer(t, 8)
	uid := p.Users()[0]
	if err := p.PublishPaper(hive.Paper{ID: "p-h", Title: "Healthz overlay probe",
		Abstract: "overlay accounting", Authors: []string{uid}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Stale bool `json:"stale"`
		Delta struct {
			OverlayDocs   int    `json:"overlay_docs"`
			PendingEvents int    `json:"pending_events"`
			DeltasApplied uint64 `json:"deltas_applied"`
			Compactions   uint64 `json:"compactions"`
			CompactionDue bool   `json:"compaction_due"`
		} `json:"delta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Stale {
		t.Fatal("healthz stale after delta apply")
	}
	if h.Delta.OverlayDocs != 1 || h.Delta.DeltasApplied == 0 {
		t.Fatalf("delta health = %+v, want one overlay doc and a recorded delta", h.Delta)
	}
	if h.Delta.Compactions == 0 {
		t.Fatal("initial build not counted as a compaction")
	}

	// An admin compaction folds the overlay away and reports it.
	resp2, err := http.Post(ts.URL+"/api/v1/admin/refresh?wait=true", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rr struct {
		Status string `json:"status"`
		Delta  *struct {
			OverlayDocs int `json:"overlay_docs"`
		} `json:"delta"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "refreshed" || rr.Delta == nil || rr.Delta.OverlayDocs != 0 {
		t.Fatalf("admin refresh response = %+v", rr)
	}
}

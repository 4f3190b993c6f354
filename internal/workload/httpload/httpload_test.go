package httpload

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hive"
	"hive/client"
	"hive/internal/server"
	"hive/internal/workload"
)

// newAPIClient builds an in-process server + SDK client pair.
func newAPIClient(t *testing.T) (*client.Client, *hive.Platform) {
	t.Helper()
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return client.New(ts.URL), p
}

// loadDirect applies the same dataset via the in-process store loader,
// as the ground truth the HTTP path must match.
func loadDirect(t *testing.T, cfg workload.Config) *hive.Platform {
	t.Helper()
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := workload.Generate(cfg).Load(p.Store()); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchMatchesLoad: the chunked batch-ingest path over the v1 API
// lands the same world as the direct store loader, at a fraction of the
// snapshot invalidations.
func TestBatchMatchesLoad(t *testing.T) {
	cfg := workload.Config{Seed: 7, Users: 16}
	ds := workload.Generate(cfg)
	direct := loadDirect(t, cfg)

	c, p := newAPIClient(t)
	var invalidations atomic.Int32
	p.Store().OnChange(func([]hive.ChangeEvent) { invalidations.Add(1) })
	if err := Batch(context.Background(), c, ds, 256); err != nil {
		t.Fatal(err)
	}

	if got, want := p.Users(), direct.Users(); len(got) != len(want) {
		t.Fatalf("users: %d vs %d", len(got), len(want))
	}
	if got, want := p.Store().Papers(), direct.Store().Papers(); len(got) != len(want) {
		t.Fatalf("papers: %d vs %d", len(got), len(want))
	}
	for _, u := range ds.Users {
		wp, err := p.ActiveWorkpad(u.ID)
		if err != nil || wp.Owner != u.ID {
			t.Fatalf("active workpad of %s: %+v, %v", u.ID, wp, err)
		}
	}
	// The dataset fits a few chunks: invalidations must be on the order
	// of chunks + workpad activations, far below the entity count.
	ents, err := Entities(ds)
	if err != nil {
		t.Fatal(err)
	}
	budget := int32(len(ents)/256 + 1 + len(ds.Workpads))
	if got := invalidations.Load(); got > budget {
		t.Fatalf("Batch cost %d invalidations for %d entities (budget %d)",
			got, len(ents), budget)
	}
}

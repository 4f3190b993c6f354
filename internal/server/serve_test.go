package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/workload"
)

// TestPeerRecsPageWalk: the peers pager ranks one past its page but
// explains only the page it serves, and a cursor walk at any page size
// still returns exactly the unpaged list — same peers, same order, same
// scores and sessions — and stops on the last page (no next_cursor
// there, one on every page before it). Evidence strengths compare to a
// part in 1e9: they are float sums in map order (ROADMAP item 2).
func TestPeerRecsPageWalk(t *testing.T) {
	ts, p := newLoadedServer(t, 24)
	c := client.New(ts.URL)
	ctx := context.Background()
	for _, u := range p.Users()[:6] {
		want, err := p.RecommendPeers(u, 50)
		if err != nil || len(want) < 3 {
			t.Fatalf("RecommendPeers(%s, 50) = %d recs, %v", u, len(want), err)
		}
		for _, limit := range []int{1, 2, 5} {
			var got []api.PeerRecommendation
			cursor := ""
			for pages := 1; ; pages++ {
				pg, err := c.PeerRecommendations(ctx, u, cursor, limit)
				if err != nil {
					t.Fatalf("%s limit %d page %d: %v", u, limit, pages, err)
				}
				got = append(got, pg.Items...)
				if last := len(got) >= len(want); last != (pg.NextCursor == "") {
					t.Fatalf("%s limit %d page %d: %d of %d items, next_cursor %q", u, limit, pages, len(got), len(want), pg.NextCursor)
				}
				if pg.NextCursor == "" {
					break
				}
				cursor = pg.NextCursor
			}
			if len(got) != len(want) {
				t.Fatalf("%s limit %d: walked %d peers, unpaged %d", u, limit, len(got), len(want))
			}
			for i := range want {
				if !samePeer(want[i], got[i]) {
					t.Fatalf("%s limit %d rank %d:\nunpaged %+v\npaged   %+v", u, limit, i, want[i], got[i])
				}
			}
		}
	}
}

func samePeer(a, b api.PeerRecommendation) bool {
	if a.UserID != b.UserID || a.Score != b.Score || !reflect.DeepEqual(a.LikelySessions, b.LikelySessions) ||
		len(a.Evidences) != len(b.Evidences) {
		return false
	}
	for i, ea := range a.Evidences {
		eb := b.Evidences[i]
		if ea.Kind != eb.Kind || ea.Description != eb.Description ||
			math.Abs(ea.Strength-eb.Strength) > 1e-9*math.Max(ea.Strength, eb.Strength) {
			return false
		}
	}
	return true
}

// countBytes counts the response body bytes a handler puts on the wire
// (after Gzip: compressed when it compressed).
type countBytes struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countBytes) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// countingServer serves p under hived's default Config (a 30 s request
// budget) behind httptest, counting the body bytes on the wire.
func countingServer(b *testing.B, p *hive.Platform) (*httptest.Server, *atomic.Int64) {
	srv := NewWith(p, Config{Timeout: 30 * time.Second})
	wire := new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(countBytes{w, wire}, r)
	}))
	b.Cleanup(ts.Close)
	return ts, wire
}

// BenchmarkServeSearch is the per-request cost of read_search's two
// search classes without booting hiveload: the real client SDK (Go's
// gzip-accepting transport) against the full middleware chain behind
// httptest, over a seeded in-memory platform, under hived's default
// Config (a 30 s request budget), so it measures what hived runs. It
// reports ns/op and allocs/op for client and server together, plus the
// response body bytes on the wire.
func BenchmarkServeSearch(b *testing.B) {
	p := loadedPlatform(b, 32)
	ts, wire := countingServer(b, p)
	var queries []string
	for _, topic := range workload.Topics {
		queries = append(queries, topic.Terms[0]+" "+topic.Terms[1], topic.Terms[2])
	}
	users := p.Users()
	c := client.New(ts.URL)
	ctx := context.Background()
	for _, mode := range []string{"plain", "context"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			wire.Store(0)
			for i := 0; i < b.N; i++ {
				user := ""
				if mode == "context" {
					user = users[i%len(users)]
				}
				if _, err := c.Search(ctx, queries[i%len(queries)], user, "", 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire.Load())/float64(b.N), "wire_B/op")
		})
	}
}

// BenchmarkServeFeed is the per-request cost of a 20-event feed page,
// the one response class of the benchmark's workloads large enough
// (≈ 2 KB) to go out gzip'd: the real client SDK, which inflates it,
// against the full envelope, over a seeded in-memory platform. It
// reports ns/op and allocs/op for client and server together, plus the
// compressed bytes on the wire.
func BenchmarkServeFeed(b *testing.B) {
	p := loadedPlatform(b, 32)
	ts, wire := countingServer(b, p)
	c := client.New(ts.URL)
	ctx := context.Background()
	var users []string
	for _, u := range p.Users() {
		if pg, err := c.Feed(ctx, u, "", 20); err == nil && len(pg.Items) == 20 {
			users = append(users, u)
		}
	}
	if len(users) == 0 {
		b.Fatal("no user has a 20-event feed page")
	}
	b.ReportAllocs()
	wire.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Feed(ctx, users[i%len(users)], "", 20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wire.Load())/float64(b.N), "wire_B/op")
}

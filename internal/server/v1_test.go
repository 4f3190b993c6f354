package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/client"
)

// decodeEnvelope fetches path and returns (status, error envelope).
func decodeEnvelope(t *testing.T, resp *http.Response) (int, *api.Error) {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error == nil {
		t.Fatalf("no error envelope (status %d)", resp.StatusCode)
	}
	return resp.StatusCode, env.Error
}

// TestErrorEnvelopeContract pins the domain-error -> (HTTP status,
// stable code) mapping of the v1 contract, one row per domain error
// plus the transport-level failure modes.
func TestErrorEnvelopeContract(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"social.ErrNotFound (missing user)", "GET", "/api/v1/users/ghost", "", 404, api.CodeNotFound},
		{"social.ErrNotFound (dangling session ref)", "POST", "/api/v1/sessions",
			`{"id":"sx","conference_id":"nope","title":"t"}`, 404, api.CodeNotFound},
		{"social.ErrInvalid (empty user ID)", "POST", "/api/v1/users", `{}`, 400, api.CodeInvalidArgument},
		{"core.ErrUnknownUser (relationship)", "GET", "/api/v1/relationship?a=ghost&b=zach", "", 404, api.CodeNotFound},
		{"core.ErrUnknownUser (peer recs)", "GET", "/api/v1/users/ghost/recommendations/peers", "", 404, api.CodeNotFound},
		{"textindex.ErrDocNotFound (preview)", "GET", "/api/v1/preview?user=zach&doc=pres/none", "", 404, api.CodeNotFound},
		{"malformed JSON body", "POST", "/api/v1/users", `{`, 400, api.CodeBadRequest},
		{"malformed cursor", "GET", "/api/v1/users?cursor=%21%21garbage", "", 400, api.CodeInvalidArgument},
		{"unknown batch kind", "POST", "/api/v1/batch",
			`{"entities":[{"kind":"alien","data":{}}]}`, 200, ""}, // per-item error, checked below
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == "GET" {
				resp, err = http.Get(ts.URL + tc.path)
			} else {
				resp, err = http.Post(ts.URL+tc.path, "application/json", bytes.NewBufferString(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantCode == "" { // batch: per-item envelope
				defer resp.Body.Close()
				var br api.BatchResponse
				if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.wantStatus || br.Failed != 1 ||
					len(br.Errors) != 1 || br.Errors[0].Error.Code != api.CodeInvalidArgument {
					t.Fatalf("batch response = %d %+v", resp.StatusCode, br)
				}
				return
			}
			status, e := decodeEnvelope(t, resp)
			if status != tc.wantStatus || e.Code != tc.wantCode {
				t.Fatalf("got (%d, %q), want (%d, %q); message %q",
					status, e.Code, tc.wantStatus, tc.wantCode, e.Message)
			}
			if e.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestConditionalGET: knowledge endpoints revalidate on the snapshot
// generation — matching If-None-Match gets a 304, a data change (after
// refresh) rotates the ETag and serves a full response again.
func TestConditionalGET(t *testing.T) {
	ts, p := newTestServer(t)
	seedViaAPI(t, ts)

	get := func(inm string) (*http.Response, string) {
		req, _ := http.NewRequest("GET", ts.URL+"/api/v1/search?q=graph+partitioning&limit=5", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	// Build the snapshot so the generation is stable, then fetch.
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp, body := get("")
	if resp.StatusCode != 200 || body == "" {
		t.Fatalf("initial fetch = %d %q", resp.StatusCode, body)
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on knowledge endpoint")
	}

	// Revalidation with the current tag: 304, empty body.
	resp, body = get(tag)
	if resp.StatusCode != http.StatusNotModified || body != "" {
		t.Fatalf("revalidate = %d %q, want 304 with empty body", resp.StatusCode, body)
	}
	// Weak-form and list-form matches too.
	if resp, _ = get("W/" + tag + `, "other"`); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak/list revalidate = %d", resp.StatusCode)
	}

	// Mutate + refresh: generation bumps, old tag must miss.
	if err := p.RegisterUser(hive.User{ID: "new", Name: "New", Interests: []string{"graphs"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp, body = get(tag)
	if resp.StatusCode != 200 || body == "" {
		t.Fatalf("post-change fetch = %d %q, want full 200", resp.StatusCode, body)
	}
	if newTag := resp.Header.Get("ETag"); newTag == tag || newTag == "" {
		t.Fatalf("ETag did not rotate: %q -> %q", tag, newTag)
	}
}

// TestConditionalGETEdgeCases: If-None-Match "*" must not mask a 404
// (RFC 9110: "*" matches only when a representation exists, unknowable
// before the handler runs), and error responses carry no ETag.
func TestConditionalGETEdgeCases(t *testing.T) {
	ts, p := newTestServer(t)
	seedViaAPI(t, ts)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/users/ghost/recommendations/peers", nil)
	req.Header.Set("If-None-Match", "*")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("INM:* on missing user = %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != "" {
		t.Fatal("error response carries an ETag")
	}

	// Success responses still carry the tag.
	resp, err = http.Get(ts.URL + "/api/v1/search?q=graphs&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("ETag") == "" {
		t.Fatal("success response lost its ETag")
	}
}

// TestConditionalGETIsPerServer: an ETag one server issued never
// validates on another — a restarted hived, or another replica behind
// the same URL — even when both serve the same snapshot generation of
// different data.
func TestConditionalGETIsPerServer(t *testing.T) {
	var tags [2]string
	var servers [2]*httptest.Server
	for i, id := range []string{"ann", "bob"} {
		ts, p := newTestServer(t)
		if err := p.RegisterUser(hive.User{ID: id, Name: id, Interests: []string{"graphs"}}); err != nil {
			t.Fatal(err)
		}
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/api/v1/search?q=graphs&limit=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		servers[i], tags[i] = ts, resp.Header.Get("ETag")
		if tags[i] == "" {
			t.Fatal("no ETag on knowledge endpoint")
		}
	}
	req, _ := http.NewRequest("GET", servers[1].URL+"/api/v1/search?q=graphs&limit=5", nil)
	req.Header.Set("If-None-Match", tags[0])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second server answered %d to the first server's tag %s (its own: %s), want 200", resp.StatusCode, tags[0], tags[1])
	}
}

// TestPaginationCursorRoundTrip walks /api/v1/users page by page and
// must reassemble exactly the full sorted listing.
func TestPaginationCursorRoundTrip(t *testing.T) {
	ts, p := newTestServer(t)
	const n = 7
	var want []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u%02d", i)
		want = append(want, id)
		if err := p.RegisterUser(hive.User{ID: id, Name: id}); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/api/v1/users?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var pg api.Page[string]
		if err := json.NewDecoder(resp.Body).Decode(&pg); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if pg.Limit != 3 {
			t.Fatalf("page limit = %d", pg.Limit)
		}
		got = append(got, pg.Items...)
		pages++
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
		if pages > n {
			t.Fatal("cursor loop did not terminate")
		}
	}
	if pages != 3 {
		t.Fatalf("pages = %d, want 3", pages)
	}
	if len(got) != n {
		t.Fatalf("got %d users, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page walk order: got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPaginationBoundedFetchers: engine-backed pages (search) must set
// next_cursor only while further results exist.
func TestPaginationBoundedFetchers(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)
	var pg api.Page[hive.SearchResult]
	if code := get(t, ts, "/api/v1/search?q=graph+partitioning&limit=1", &pg); code != 200 {
		t.Fatalf("code = %d", code)
	}
	if len(pg.Items) != 1 {
		t.Fatalf("items = %+v", pg.Items)
	}
	// Walk to exhaustion.
	seen := len(pg.Items)
	for pg.NextCursor != "" && seen < 50 {
		cursor := pg.NextCursor
		pg = api.Page[hive.SearchResult]{} // next_cursor is omitempty: reset between pages
		if code := get(t, ts, "/api/v1/search?q=graph+partitioning&limit=1&cursor="+cursor, &pg); code != 200 {
			t.Fatalf("code = %d", code)
		}
		seen += len(pg.Items)
	}
	if seen >= 50 {
		t.Fatal("search pagination never exhausted")
	}
}

// TestFeedLimitZeroKeepsWindow: limit=0 (historically "unbounded")
// falls back to the default window, not to a single item.
func TestFeedLimitZeroKeepsWindow(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)
	var feed api.Page[hive.Event]
	if code := get(t, ts, "/api/v1/users/aaron/feed?limit=0", &feed); code != 200 {
		t.Fatalf("code = %d", code)
	}
	if feed.Limit != api.DefaultPageSize || len(feed.Items) < 2 {
		t.Fatalf("limit=0 returned %d events at limit %d, want the default window", len(feed.Items), feed.Limit)
	}
}

// waitCompacted polls until p has compacted past before and turned
// current, failing after 5 s.
func waitCompacted(t *testing.T, p *hive.Platform, before uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.State().Compactions == before || p.Stale() {
		if time.Now().After(deadline) {
			t.Fatalf("overflow never compacted: %d compaction(s) since setup, stale=%v", p.State().Compactions-before, p.Stale())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOverflowCompactsWithoutReads: a batch of more than 4096 events
// is the one write that does not fold its own delta, and it starts the
// compaction that repairs it. With no read, no AutoRefresh and no admin
// call the generation advances and the snapshot turns current.
func TestOverflowCompactsWithoutReads(t *testing.T) {
	ts, p := newTestServer(t)
	seedViaAPI(t, ts)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	gen, compactions := p.Generation(), p.State().Compactions

	st := p.Store()
	err := st.Batched(func() error {
		for i := 0; i < 4200; i++ {
			if err := st.PutUser(hive.User{ID: "late", Name: "Late"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCompacted(t, p, compactions)
	if p.Generation() == gen {
		t.Fatalf("generation still %d after the compaction", gen)
	}
}

// TestOverflowCompactsOnlyOwnerShard: one owner's batch of more than
// 4096 events is skipped by the owning shard's fold alone. With no read
// at all, that shard compacts; the others, current all along, are not
// stalled by builds that would change nothing.
func TestOverflowCompactsOnlyOwnerShard(t *testing.T) {
	ts, sh := newShardedServer(t, 4)
	expectStatus(t, post(t, ts, "/api/v1/users", api.User{ID: "ann", Name: "Ann"}), http.StatusCreated)
	if err := sh.Refresh(); err != nil {
		t.Fatal(err)
	}
	before := make([]uint64, sh.ShardCount())
	for i, p := range sh.Shards() {
		before[i] = p.State().Compactions
	}

	var batch api.BatchRequest
	for i := 0; i < 4200; i++ {
		ent, err := api.NewBatchEntity(api.KindPaper, api.Paper{
			ID: fmt.Sprintf("p%d", i), Title: "Graph partitioning", Authors: []string{"ann"}})
		if err != nil {
			t.Fatal(err)
		}
		batch.Entities = append(batch.Entities, ent)
	}
	expectStatus(t, post(t, ts, "/api/v1/batch", batch), http.StatusOK)
	owner := sh.ShardOf("ann")
	waitCompacted(t, sh.Shard(owner), before[owner])

	// Close waits for every flight in progress.
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range sh.Shards() {
		if moved := p.State().Compactions - before[i]; i != owner && moved != 0 {
			t.Fatalf("current shard %d ran %d compaction(s) for shard %d's overflow", i, moved, owner)
		}
	}
}

// TestBatchIngestSingleInvalidation is the batch acceptance criterion:
// N entities, one store pass, exactly one snapshot invalidation.
func TestBatchIngestSingleInvalidation(t *testing.T) {
	ts, p := newTestServer(t)

	var invalidations atomic.Int32
	p.Store().OnChange(func([]hive.ChangeEvent) { invalidations.Add(1) })

	entities := []api.BatchEntity{}
	add := func(kind string, v any) {
		ent, err := api.NewBatchEntity(kind, v)
		if err != nil {
			t.Fatal(err)
		}
		entities = append(entities, ent)
	}
	add(api.KindUser, api.User{ID: "zach", Name: "Zach", Interests: []string{"graphs"}})
	add(api.KindUser, api.User{ID: "ann", Name: "Ann", Interests: []string{"graphs"}})
	add(api.KindConference, api.Conference{ID: "edbt13", Name: "EDBT 2013"})
	add(api.KindSession, api.Session{ID: "s1", ConferenceID: "edbt13", Title: "Graphs", Hashtag: "#s1"})
	add(api.KindPaper, api.Paper{ID: "p1", Title: "Graph partitioning", Abstract: "We partition graphs.",
		Authors: []string{"ann"}, ConferenceID: "edbt13", SessionID: "s1"})
	add(api.KindConnection, api.ConnectRequest{A: "zach", B: "ann"})
	add(api.KindFollow, api.FollowRequest{Follower: "zach", Followee: "ann"})
	add(api.KindCheckin, api.CheckinRequest{SessionID: "s1", UserID: "zach"})
	add(api.KindQuestion, api.Question{ID: "q1", Author: "zach", Target: "p1", Text: "why?"})
	add(api.KindWorkpad, api.Workpad{ID: "w1", Owner: "zach", Name: "ctx"})

	resp := post(t, ts, "/api/v1/batch", api.BatchRequest{Entities: entities})
	defer resp.Body.Close()
	var br api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || br.Applied != len(entities) || br.Failed != 0 {
		t.Fatalf("batch = %d %+v", resp.StatusCode, br)
	}
	if got := invalidations.Load(); got != 1 {
		t.Fatalf("snapshot invalidations = %d for %d entities, want exactly 1", got, len(entities))
	}

	// The batch really landed: entities are queryable.
	var u hive.User
	if code := get(t, ts, "/api/v1/users/zach", &u); code != 200 || u.Name != "Zach" {
		t.Fatalf("user after batch = %d %+v", code, u)
	}
	var att api.Page[string]
	if code := get(t, ts, "/api/v1/sessions/s1/attendees", &att); code != 200 || len(att.Items) != 1 {
		t.Fatalf("attendees after batch = %d %+v", code, att)
	}

	// Partial failure: bad elements are reported, good ones still apply,
	// still one invalidation for the whole batch.
	invalidations.Store(0)
	mixed := []api.BatchEntity{}
	entities = entities[:0]
	add(api.KindUser, api.User{ID: "carl", Name: "Carl"})
	add(api.KindUser, api.User{}) // invalid: empty ID
	mixed = entities
	resp = post(t, ts, "/api/v1/batch", api.BatchRequest{Entities: mixed})
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 1 || br.Failed != 1 || len(br.Errors) != 1 ||
		br.Errors[0].Index != 1 || br.Errors[0].Error.Code != api.CodeInvalidArgument {
		t.Fatalf("mixed batch = %+v", br)
	}
	if got := invalidations.Load(); got != 1 {
		t.Fatalf("mixed-batch invalidations = %d, want 1", got)
	}
}

// TestTagNormalization: hashed and bare path tags resolve the same
// fan-out (hashed input used to become "##tag" and match nothing).
func TestTagNormalization(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts) // zach checked into s1 whose hashtag is #s1

	for _, path := range []string{
		"/api/v1/tags/s1/events",
		"/api/v1/tags/%23s1/events", // "#s1"
	} {
		var pg api.Page[hive.Event]
		if code := get(t, ts, path, &pg); code != 200 {
			t.Fatalf("%s code = %d", path, code)
		}
		if len(pg.Items) == 0 {
			t.Fatalf("%s returned no events", path)
		}
	}
}

// TestUsersPageCapped: the user listing never returns the entire table
// in one response — the default page, then a ceiling on explicit limits,
// with the rest behind cursors.
func TestUsersPageCapped(t *testing.T) {
	ts, p := newTestServer(t)
	total := api.MaxPageSize + 13
	for i := 0; i < total; i++ {
		if err := p.RegisterUser(hive.User{ID: fmt.Sprintf("u%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	var pg api.Page[string]
	if code := get(t, ts, "/api/v1/users", &pg); code != 200 {
		t.Fatalf("code = %d", code)
	}
	if len(pg.Items) != api.DefaultPageSize || pg.NextCursor == "" {
		t.Fatalf("default page: %d ids next=%q, want %d and a cursor", len(pg.Items), pg.NextCursor, api.DefaultPageSize)
	}
	// Absurd explicit limits clamp to the ceiling rather than flowing through.
	pg = api.Page[string]{}
	if code := get(t, ts, "/api/v1/users?limit=999999", &pg); code != 200 {
		t.Fatalf("code = %d", code)
	}
	if len(pg.Items) != api.MaxPageSize || pg.NextCursor == "" {
		t.Fatalf("clamped page: %d ids next=%q, want %d and a cursor", len(pg.Items), pg.NextCursor, api.MaxPageSize)
	}
}

// TestIntParamClamped: negative and absurd k/limit/budget values no
// longer flow into engine calls.
func TestIntParamClamped(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)
	for _, path := range []string{
		"/api/v1/search?q=graphs&limit=-5",
		"/api/v1/users/zach/recommendations/peers?limit=100000000",
		"/api/v1/users/zach/digest?budget=-1",
		"/api/v1/users/zach/digest?budget=99999999",
		"/api/v1/users/zach/feed?limit=-9",
		"/api/v1/preview?user=zach&doc=pres/pr1&k=2000000000",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestBodySizeCap: oversized request bodies are rejected with 413 and
// the payload_too_large code instead of being buffered unboundedly.
func TestBodySizeCap(t *testing.T) {
	ts, _ := newTestServer(t)
	huge := fmt.Sprintf(`{"id":"big","name":%q}`, bytes.Repeat([]byte("x"), 2<<20))
	resp, err := http.Post(ts.URL+"/api/v1/users", "application/json", bytes.NewBufferString(huge))
	if err != nil {
		t.Fatal(err)
	}
	status, e := decodeEnvelope(t, resp)
	if status != http.StatusRequestEntityTooLarge || e.Code != api.CodePayloadTooLarge {
		t.Fatalf("got (%d, %q), want (413, %q)", status, e.Code, api.CodePayloadTooLarge)
	}
}

// TestTimeoutExemptsLongRoutes: batch and synchronous refresh scale
// with data size and must not be cut off by the global request budget.
func TestTimeoutExemptsLongRoutes(t *testing.T) {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns budget 503s everything that is not exempt.
	ts := httptest.NewServer(NewWith(p, Config{Timeout: 1}))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("non-exempt route = %d, want 503 under 1ns budget", resp.StatusCode)
	}
	for _, path := range []string{"/api/v1/batch", "/api/v1/admin/refresh?wait=true"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(`{"entities":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			t.Fatalf("%s hit the request timeout; must be exempt", path)
		}
	}
}

// TestOneRouteFamily: /api/v1 is the only route family — the
// unversioned aliases it replaced are gone, reads and writes alike.
func TestOneRouteFamily(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := get(t, ts, "/api/healthz", nil); code != http.StatusNotFound {
		t.Fatalf("GET /api/healthz = %d, want 404", code)
	}
	expectStatus(t, post(t, ts, "/api/users", api.User{ID: "u1", Name: "One"}), http.StatusNotFound)
	if code := get(t, ts, "/api/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /api/v1/healthz = %d", code)
	}
}

// newShardedServer serves a fresh in-memory backend of n shards.
func newShardedServer(t *testing.T, n int) (*httptest.Server, *hive.Sharded) {
	t.Helper()
	sh, err := hive.OpenSharded(n, hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewSharded(sh, Config{}))
	t.Cleanup(func() {
		ts.Close()
		sh.Close()
	})
	return ts, sh
}

// TestV1ContractOverShardCounts runs the v1 contract against the one
// serving backend at one shard and at four: the same requests, the same
// answers, whatever the shard count.
func TestV1ContractOverShardCounts(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Run("full scenario", func(t *testing.T) {
				ts, _ := newShardedServer(t, n)
				v1FullScenario(t, ts, n)
			})
			t.Run("feed cursor walk", func(t *testing.T) {
				ts, sh := newShardedServer(t, n)
				feedWalksWholeFeed(t, ts, sh)
			})
		})
	}
}

// v1FullScenario drives the Zach scenario end-to-end on the v1 surface
// with typed DTOs and paginated envelopes.
func v1FullScenario(t *testing.T, ts *httptest.Server, shards int) {
	for _, u := range []api.User{
		{ID: "zach", Name: "Zach", Interests: []string{"graphs"}},
		{ID: "ann", Name: "Ann", Interests: []string{"graphs"}},
		{ID: "aaron", Name: "Aaron"},
	} {
		expectStatus(t, post(t, ts, "/api/v1/users", u), http.StatusCreated)
	}
	expectStatus(t, post(t, ts, "/api/v1/conferences", api.Conference{ID: "edbt13", Name: "EDBT"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/sessions",
		api.Session{ID: "s1", ConferenceID: "edbt13", Title: "Graphs", Hashtag: "#s1"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/papers", api.Paper{ID: "p1", Title: "Graph partitioning",
		Abstract: "We partition graphs.", Authors: []string{"ann"}, ConferenceID: "edbt13", SessionID: "s1"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/connections", api.ConnectRequest{A: "zach", B: "ann"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/follows", api.FollowRequest{Follower: "aaron", Followee: "zach"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/checkins", api.CheckinRequest{SessionID: "s1", UserID: "zach"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/workpads", api.Workpad{ID: "w1", Owner: "zach", Name: "ctx"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/workpads/w1/items",
		api.WorkpadItem{Kind: hive.ItemPaper, Ref: "p1"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/workpads/w1/activate",
		api.ActivateWorkpadRequest{Owner: "zach"}), http.StatusOK)

	var wp api.Workpad
	if code := get(t, ts, "/api/v1/users/zach/workpad", &wp); code != 200 || wp.ID != "w1" || len(wp.Items) != 1 {
		t.Fatalf("workpad = %d %+v", code, wp)
	}
	var feed api.Page[api.Event]
	if code := get(t, ts, "/api/v1/users/aaron/feed", &feed); code != 200 || len(feed.Items) == 0 {
		t.Fatalf("feed = %d %+v", code, feed)
	}
	var ex api.Explanation
	if code := get(t, ts, "/api/v1/relationship?a=zach&b=ann", &ex); code != 200 || len(ex.Evidences) == 0 {
		t.Fatalf("relationship = %d %+v", code, ex)
	}
	var recs api.Page[api.PeerRecommendation]
	if code := get(t, ts, "/api/v1/users/zach/recommendations/peers?limit=3", &recs); code != 200 {
		t.Fatalf("peer recs = %d", code)
	}
	var sugg api.Page[api.SessionSuggestion]
	if code := get(t, ts, "/api/v1/users/aaron/sessions/suggest?conf=edbt13&limit=3", &sugg); code != 200 {
		t.Fatalf("suggest = %d", code)
	}
	var comms api.Page[[]string]
	if code := get(t, ts, "/api/v1/communities", &comms); code != 200 || len(comms.Items) == 0 {
		t.Fatalf("communities = %d %+v", code, comms)
	}
	var hits api.Page[api.HistoryEntry]
	if code := get(t, ts, "/api/v1/users/zach/history?q=checkin", &hits); code != 200 || len(hits.Items) == 0 {
		t.Fatalf("history = %d %+v", code, hits)
	}
	var res api.Page[api.SearchResult]
	if code := get(t, ts, "/api/v1/search?q=graph+partitioning&limit=5&user=zach", &res); code != 200 || len(res.Items) == 0 {
		t.Fatalf("context search = %d %+v", code, res)
	}
	if code := get(t, ts, "/api/v1/preview?user=zach&doc=pres/none", nil); code != 404 {
		t.Fatalf("preview missing doc = %d", code)
	}
	var sum api.Summary
	if code := get(t, ts, "/api/v1/users/aaron/digest?budget=3", &sum); code != 200 || len(sum.Rows) == 0 {
		t.Fatalf("digest = %d %+v", code, sum)
	}
	var paths []api.KnowledgePath
	if code := get(t, ts, "/api/v1/knowledge/paths?a=user:ann&b=session:s1&k=2", &paths); code != 200 || len(paths) == 0 {
		t.Fatalf("knowledge paths = %d %v", code, paths)
	}
	var health api.Health
	if code := get(t, ts, "/api/v1/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}
	if health.ShardCount != shards || len(health.Shards) != shards {
		t.Fatalf("healthz shard map = count %d, %d rows, want %d", health.ShardCount, len(health.Shards), shards)
	}
	var cs api.ClusterStatus
	if code := get(t, ts, "/api/v1/cluster", &cs); code != 200 || cs.ShardCount != shards || len(cs.Shards) != shards {
		t.Fatalf("cluster = %d count %d, %d rows, want %d", code, cs.ShardCount, len(cs.Shards), shards)
	}
	for i, s := range cs.Shards {
		if s.ID != i || s.Role != api.RoleLeader {
			t.Fatalf("cluster shard row %d = id %d role %q, want id %d leading", i, s.ID, s.Role, i)
		}
	}
	resp := post(t, ts, "/api/v1/admin/refresh?wait=true", struct{}{})
	expectStatus(t, resp, http.StatusOK)
}

// feedWalksWholeFeed: the v1 feed pages newest-first through the entire
// feed with no duplicated or unreachable events, over the vector cursor
// every shard count mints.
func feedWalksWholeFeed(t *testing.T, ts *httptest.Server, sh *hive.Sharded) {
	seedViaAPI(t, ts)
	// zach emits 11 more events that aaron (his follower) sees.
	for i := 0; i < 11; i++ {
		if err := sh.LogBrowse("zach", fmt.Sprintf("obj%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var walked []api.Event
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 20 {
			t.Fatal("cursor loop did not terminate")
		}
		url := "/api/v1/users/aaron/feed?limit=3"
		if cursor != "" {
			if _, err := api.DecodeShardCursor(cursor, sh.ShardCount()); err != nil {
				t.Fatalf("next_cursor %q is not a %d-shard vector cursor: %v", cursor, sh.ShardCount(), err)
			}
			url += "&cursor=" + cursor
		}
		var pg api.Page[api.Event]
		if code := get(t, ts, url, &pg); code != 200 {
			t.Fatalf("code = %d", code)
		}
		walked = append(walked, pg.Items...)
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if len(walked) < 13 { // 11 browses + checkin + question
		t.Fatalf("walked %d events, want the whole feed (>= 13)", len(walked))
	}
	seen := map[string]bool{}
	for i, ev := range walked {
		// Sequences are per shard; verb and object name an event of this
		// feed whatever the shard count.
		id := ev.Verb + " " + ev.Object
		if seen[id] {
			t.Fatalf("duplicate event %q across pages (%+v)", id, walked)
		}
		seen[id] = true
		if i > 0 && walked[i-1].At < ev.At {
			t.Fatalf("feed not newest-first: %+v", walked)
		}
	}
}

// TestShardHeaderIsIgnored: the server places every write on its
// owner's shard itself, so an X-Hive-Shard header, mis-declared or
// unparsable, is ignored like any unknown header. The write's trace
// carries the shard it went to, and an SDK write lands first try.
func TestShardHeaderIsIgnored(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ts, sh := newShardedServer(t, n)
			// held reports the shards holding paper id.
			held := func(id string) []int {
				var on []int
				for i, p := range sh.Shards() {
					if _, err := p.Store().Paper(id); err == nil {
						on = append(on, i)
					}
				}
				return on
			}
			for _, author := range []string{"ann", "bob", "cyd", "dee"} {
				expectStatus(t, post(t, ts, "/api/v1/users", api.User{ID: author, Name: author}), http.StatusCreated)
				want := api.ShardOf(author, n)
				for _, hdr := range []string{"99", "zero"} {
					id, tid := "p-"+author+"-"+hdr, "ignored-"+author+"-"+hdr
					raw, err := json.Marshal(api.Paper{ID: id, Title: "Placed " + id, Authors: []string{author}})
					if err != nil {
						t.Fatal(err)
					}
					req, _ := http.NewRequest("POST", ts.URL+"/api/v1/papers", bytes.NewReader(raw))
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set("X-Hive-Shard", hdr)
					req.Header.Set(api.TraceHeader, tid)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					expectStatus(t, resp, http.StatusCreated)
					if on := held(id); len(on) != 1 || on[0] != want {
						t.Fatalf("%s (X-Hive-Shard: %s) held by shards %v, want [%d]", id, hdr, on, want)
					}
					if tr := recordedTrace(t, ts.URL, tid); tr.Shard != want {
						t.Fatalf("%s trace shard = %d, want %d", id, tr.Shard, want)
					}
				}
			}

			c := client.New(ts.URL)
			if err := c.CreatePaper(context.Background(), api.Paper{ID: "p-sdk", Title: "Placed", Authors: []string{"ann"}}); err != nil || c.Redirects() != 0 {
				t.Fatalf("SDK write = %v after %d redirects, want first-try success", err, c.Redirects())
			}
			want := api.ShardOf("ann", n)
			if on := held("p-sdk"); len(on) != 1 || on[0] != want {
				t.Fatalf("SDK paper held by shards %v, want [%d]", on, want)
			}
			if tr := recordedTrace(t, ts.URL, c.LastTraceID()); tr.Shard != want {
				t.Fatalf("SDK write trace shard = %d, want %d", tr.Shard, want)
			}
		})
	}
}

// TestV1RequestIDPropagation: a request has one ID, its X-Hive-Trace-Id.
// A well-formed inbound ID is adopted and anything else — oversized, or
// with characters that would break the access-log line — is replaced by
// a minted one. The ID on the response header is the one in the error
// envelope, on the access-log line and in the debug/traces ring, and no
// second ID (the old X-Request-ID) is set.
func TestV1RequestIDPropagation(t *testing.T) {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var accessLog syncBuffer
	ts := httptest.NewServer(NewWith(p, Config{AccessLog: log.New(&accessLog, "", 0)}))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	for _, tc := range []struct {
		inbound string
		adopt   bool
	}{
		{"cafef00ddeadbeef", true},
		{"trace-me-42", true},
		{strings.Repeat("a", maxTraceIDLen), true},
		{"", false},
		{strings.Repeat("a", maxTraceIDLen+1), false},
		{"two words", false},
		{"a=b", false},
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/api/v1/users/ghost", nil)
		if tc.inbound != "" {
			req.Header.Set(api.TraceHeader, tc.inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Header.Get(api.TraceHeader)
		if tc.adopt && id != tc.inbound || !tc.adopt && len(id) != 16 {
			t.Fatalf("inbound %q: response ID %q, want it adopted = %v", tc.inbound, id, tc.adopt)
		}
		if rid := resp.Header.Get("X-Request-ID"); rid != "" {
			t.Fatalf("inbound %q: a second ID X-Request-ID %q", tc.inbound, rid)
		}
		if env.TraceID != id {
			t.Fatalf("inbound %q: envelope trace_id %q, header %q", tc.inbound, env.TraceID, id)
		}
		if line := "GET /api/v1/users/ghost 404 "; !strings.Contains(accessLog.String(), " trace="+id+" shard=-1\n") ||
			!strings.Contains(accessLog.String(), line) {
			t.Fatalf("inbound %q: no access-log line %q... trace=%s\n--- log ---\n%s", tc.inbound, line, id, accessLog.String())
		}
		if tr := recordedTrace(t, ts.URL, id); tr.Route != "/api/v1/users/{id}" || tr.Status != http.StatusNotFound {
			t.Fatalf("inbound %q: recorded trace %+v", tc.inbound, tr)
		}
	}
}

// syncBuffer is a bytes.Buffer safe to write from the server's
// goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

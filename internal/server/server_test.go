package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hive"
	"hive/api"
)

func newTestServer(t *testing.T) (*httptest.Server, *hive.Platform) {
	t.Helper()
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return ts, p
}

func post(t *testing.T, ts *httptest.Server, path string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func expectStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, want, body.String())
	}
}

// seedViaAPI drives the whole scenario through HTTP only.
func seedViaAPI(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for _, u := range []hive.User{
		{ID: "zach", Name: "Zach", Affiliation: "ASU", Interests: []string{"graphs"}},
		{ID: "ann", Name: "Ann", Affiliation: "UniTo", Interests: []string{"graphs"}},
		{ID: "aaron", Name: "Aaron", Affiliation: "MPI"},
	} {
		expectStatus(t, post(t, ts, "/api/v1/users", u), http.StatusCreated)
	}
	expectStatus(t, post(t, ts, "/api/v1/conferences",
		hive.Conference{ID: "edbt13", Name: "EDBT 2013", Series: "edbt", Year: 2013}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/sessions",
		hive.Session{ID: "s1", ConferenceID: "edbt13", Title: "Graph processing at scale", Hashtag: "#s1"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/papers",
		hive.Paper{ID: "p1", Title: "Graph partitioning", Abstract: "We partition graphs.",
			Authors: []string{"ann"}, ConferenceID: "edbt13", SessionID: "s1"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/presentations",
		hive.Presentation{ID: "pr1", PaperID: "p1", Owner: "ann",
			Text: "Graph partitioning slides. Communication costs matter. Vertex cuts beat edge cuts."}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/connections", api.ConnectRequest{A: "zach", B: "ann"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/follows", api.FollowRequest{Follower: "aaron", Followee: "zach"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/checkins", api.CheckinRequest{SessionID: "s1", UserID: "zach"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/questions",
		hive.Question{ID: "q1", Author: "zach", Target: "p1", Text: "How do vertex cuts scale?"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/workpads",
		hive.Workpad{ID: "w1", Owner: "zach", Name: "ctx"}), http.StatusCreated)
}

func TestHealthz(t *testing.T) {
	ts, p := newTestServer(t)
	var out map[string]any
	if code := get(t, ts, "/api/v1/healthz", &out); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("body = %v", out)
	}
	// No snapshot has been built yet: healthz must say so, not block.
	if out["snapshot"] != false || out["stale"] != true {
		t.Fatalf("pre-build healthz = %v", out)
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if code := get(t, ts, "/api/v1/healthz", &out); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if out["snapshot"] != true || out["stale"] != false || out["generation"] != float64(1) {
		t.Fatalf("post-build healthz = %v", out)
	}
	for _, key := range []string{"built_at", "build_ms", "age_ms"} {
		if _, ok := out[key]; !ok {
			t.Fatalf("healthz missing %q: %v", key, out)
		}
	}
}

func TestUserCRUDOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	expectStatus(t, post(t, ts, "/api/v1/users", hive.User{ID: "u1", Name: "One"}), http.StatusCreated)
	var u hive.User
	if code := get(t, ts, "/api/v1/users/u1", &u); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if u.Name != "One" {
		t.Fatalf("user = %+v", u)
	}
	if code := get(t, ts, "/api/v1/users/nope", nil); code != http.StatusNotFound {
		t.Fatalf("missing user code = %d", code)
	}
	var ids api.Page[string]
	get(t, ts, "/api/v1/users", &ids)
	if len(ids.Items) != 1 || ids.Items[0] != "u1" {
		t.Fatalf("ids = %+v", ids)
	}
}

func TestValidationErrorsMapTo4xx(t *testing.T) {
	ts, _ := newTestServer(t)
	// Session without conference -> 404 (missing reference).
	resp := post(t, ts, "/api/v1/sessions", hive.Session{ID: "s1", ConferenceID: "nope"})
	expectStatus(t, resp, http.StatusNotFound)
	// Empty user ID -> 400.
	resp = post(t, ts, "/api/v1/users", hive.User{})
	expectStatus(t, resp, http.StatusBadRequest)
	// Malformed JSON -> 400.
	r, err := http.Post(ts.URL+"/api/v1/users", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	expectStatus(t, r, http.StatusBadRequest)
}

func TestFullScenarioOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)

	// Attendees.
	var att api.Page[string]
	get(t, ts, "/api/v1/sessions/s1/attendees", &att)
	if len(att.Items) != 1 || att.Items[0] != "zach" {
		t.Fatalf("attendees = %+v", att)
	}

	// Feed: aaron follows zach, zach checked in + asked.
	var feed api.Page[hive.Event]
	get(t, ts, "/api/v1/users/aaron/feed", &feed)
	if len(feed.Items) < 2 {
		t.Fatalf("feed = %+v", feed)
	}

	// Hashtag fan-out: both the check-in and the question about the
	// session's paper broadcast under #s1.
	var tagEvents api.Page[hive.Event]
	get(t, ts, "/api/v1/tags/s1/events", &tagEvents)
	if evs := tagEvents.Items; len(evs) != 2 || evs[0].Verb != "checkin" || evs[1].Verb != "question" {
		t.Fatalf("tag events = %+v", tagEvents)
	}

	// Relationship explanation.
	var ex hive.Explanation
	if code := get(t, ts, "/api/v1/relationship?a=zach&b=ann", &ex); code != http.StatusOK {
		t.Fatalf("relationship code = %d", code)
	}
	if len(ex.Evidences) == 0 {
		t.Fatalf("no evidences: %+v", ex)
	}

	// Peer recommendations.
	var peers api.Page[hive.PeerRecommendation]
	get(t, ts, "/api/v1/users/zach/recommendations/peers?limit=3", &peers)
	for _, r := range peers.Items {
		if r.UserID == "ann" {
			t.Fatal("recommended existing connection")
		}
	}

	// Search, plain and contextual.
	var res api.Page[hive.SearchResult]
	get(t, ts, "/api/v1/search?q=graph+partitioning&limit=5", &res)
	if len(res.Items) == 0 {
		t.Fatal("no search results")
	}
	res = api.Page[hive.SearchResult]{}
	get(t, ts, "/api/v1/search?q=graph+partitioning&limit=5&user=zach", &res)
	if len(res.Items) == 0 {
		t.Fatal("no contextual search results")
	}

	// Preview.
	var snips []hive.Snippet
	if code := get(t, ts, "/api/v1/preview?user=zach&doc=pres/pr1&k=2", &snips); code != http.StatusOK {
		t.Fatalf("preview code = %d", code)
	}
	if len(snips) == 0 {
		t.Fatal("no snippets")
	}

	// Digest.
	var sum hive.Summary
	get(t, ts, "/api/v1/users/aaron/digest?budget=3", &sum)
	if len(sum.Rows) == 0 {
		t.Fatal("empty digest")
	}

	// Communities.
	var comms api.Page[[]string]
	get(t, ts, "/api/v1/communities", &comms)
	if len(comms.Items) == 0 {
		t.Fatal("no communities")
	}

	// Workpad item + activation + fetch.
	expectStatus(t, post(t, ts, "/api/v1/workpads/w1/items",
		hive.WorkpadItem{Kind: hive.ItemPaper, Ref: "p1"}), http.StatusCreated)
	expectStatus(t, post(t, ts, "/api/v1/workpads/w1/activate",
		api.ActivateWorkpadRequest{Owner: "zach"}), http.StatusOK)
	var wp hive.Workpad
	get(t, ts, "/api/v1/users/zach/workpad", &wp)
	if wp.ID != "w1" || len(wp.Items) != 1 {
		t.Fatalf("workpad = %+v", wp)
	}

	// Session suggestions (zach attended s1 already -> may be empty, but
	// must not error).
	var sugg api.Page[hive.SessionSuggestion]
	if code := get(t, ts, "/api/v1/users/aaron/sessions/suggest?conf=edbt13&limit=3", &sugg); code != http.StatusOK {
		t.Fatalf("suggest code = %d", code)
	}

	// Synchronous refresh.
	expectStatus(t, post(t, ts, "/api/v1/admin/refresh?wait=true", map[string]string{}), http.StatusOK)
}

func TestUnknownUserKnowledgeCalls404(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)
	if code := get(t, ts, "/api/v1/relationship?a=ghost&b=zach", nil); code != http.StatusNotFound {
		t.Fatalf("code = %d", code)
	}
	if code := get(t, ts, "/api/v1/users/ghost/recommendations/peers", nil); code != http.StatusNotFound {
		t.Fatalf("code = %d", code)
	}
	if code := get(t, ts, "/api/v1/preview?user=zach&doc=pres/none", nil); code != http.StatusNotFound {
		t.Fatalf("code = %d", code)
	}
}

func TestConcurrentAPIRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/api/v1/search?q=graph&limit=3&user=zach", ts.URL))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHistoryAndResourceRelationshipEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	seedViaAPI(t, ts)

	var hits api.Page[hive.HistoryEntry]
	if code := get(t, ts, "/api/v1/users/zach/history?q=checkin", &hits); code != http.StatusOK {
		t.Fatalf("history code = %d", code)
	}
	if len(hits.Items) == 0 {
		t.Fatal("no history hits")
	}
	if code := get(t, ts, "/api/v1/users/ghost/history", nil); code != http.StatusNotFound {
		t.Fatalf("ghost history code = %d", code)
	}

	var evs []hive.ResourceEvidence
	if code := get(t, ts, "/api/v1/users/ann/resource-relationship?entity=p1", &evs); code != http.StatusOK {
		t.Fatalf("resource-relationship code = %d", code)
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == "authored" {
			found = true
		}
	}
	if !found {
		t.Fatalf("authored evidence missing: %+v", evs)
	}

	var paths []hive.KnowledgePath
	if code := get(t, ts, "/api/v1/knowledge/paths?a=user:ann&b=session:s1&k=2", &paths); code != http.StatusOK {
		t.Fatalf("knowledge paths code = %d", code)
	}
	if len(paths) == 0 {
		t.Fatal("no knowledge paths (ann authored p1 presented in s1)")
	}
}

package client_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/election"
	"hive/internal/server"
)

func newClient(t *testing.T, opts ...client.Option) (*client.Client, *hive.Platform) {
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
	return client.New(ts.URL, opts...), p
}

// seedSDK drives the Zach scenario entirely through the SDK.
func seedSDK(t *testing.T, c *client.Client) {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []api.User{
		{ID: "zach", Name: "Zach", Affiliation: "ASU", Interests: []string{"graphs"}},
		{ID: "ann", Name: "Ann", Affiliation: "UniTo", Interests: []string{"graphs"}},
		{ID: "aaron", Name: "Aaron", Affiliation: "MPI"},
	} {
		must(c.CreateUser(ctx, u))
	}
	must(c.CreateConference(ctx, api.Conference{ID: "edbt13", Name: "EDBT 2013"}))
	must(c.CreateSession(ctx, api.Session{ID: "s1", ConferenceID: "edbt13",
		Title: "Graph processing at scale", Hashtag: "#s1"}))
	must(c.CreatePaper(ctx, api.Paper{ID: "p1", Title: "Graph partitioning",
		Abstract: "We partition graphs.", Authors: []string{"ann"},
		ConferenceID: "edbt13", SessionID: "s1"}))
	must(c.CreatePresentation(ctx, api.Presentation{ID: "pr1", PaperID: "p1", Owner: "ann",
		Text: "Graph partitioning slides. Communication costs matter."}))
	must(c.Connect(ctx, "zach", "ann"))
	must(c.Follow(ctx, "aaron", "zach"))
	must(c.CheckIn(ctx, "s1", "zach"))
	must(c.Ask(ctx, api.Question{ID: "q1", Author: "zach", Target: "p1", Text: "How do cuts scale?"}))
	must(c.Answer(ctx, api.Answer{ID: "a1", QuestionID: "q1", Author: "ann", Text: "Linearly."}))
	must(c.Comment(ctx, api.Comment{ID: "c1", Author: "aaron", Target: "p1", Text: "Neat."}))
	must(c.CreateWorkpad(ctx, api.Workpad{ID: "w1", Owner: "zach", Name: "ctx"}))
	must(c.AddWorkpadItem(ctx, "w1", api.WorkpadItem{Kind: hive.ItemPaper, Ref: "p1"}))
	must(c.ActivateWorkpad(ctx, "zach", "w1"))
}

// TestSDKFullSurface exercises every v1 endpoint through the SDK.
func TestSDKFullSurface(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	seedSDK(t, c)

	u, err := c.GetUser(ctx, "zach")
	if err != nil || u.Name != "Zach" {
		t.Fatalf("GetUser = %+v, %v", u, err)
	}
	users, err := c.Users(ctx, "", 2)
	if err != nil || len(users.Items) != 2 || users.NextCursor == "" {
		t.Fatalf("Users page = %+v, %v", users, err)
	}
	rest, err := c.Users(ctx, users.NextCursor, 2)
	if err != nil || len(rest.Items) != 1 || rest.NextCursor != "" {
		t.Fatalf("Users page 2 = %+v, %v", rest, err)
	}
	att, err := c.Attendees(ctx, "s1", "", 0)
	if err != nil || len(att.Items) != 1 || att.Items[0] != "zach" {
		t.Fatalf("Attendees = %+v, %v", att, err)
	}
	wp, err := c.ActiveWorkpad(ctx, "zach")
	if err != nil || wp.ID != "w1" || len(wp.Items) != 1 {
		t.Fatalf("ActiveWorkpad = %+v, %v", wp, err)
	}
	feed, err := c.Feed(ctx, "aaron", "", 0)
	if err != nil || len(feed.Items) == 0 {
		t.Fatalf("Feed = %+v, %v", feed, err)
	}
	// Tag normalization: hashed and bare spellings agree.
	evs, err := c.TagEvents(ctx, "#s1", "", 0)
	if err != nil || len(evs.Items) == 0 {
		t.Fatalf("TagEvents(#s1) = %+v, %v", evs, err)
	}
	bare, err := c.TagEvents(ctx, "s1", "", 0)
	if err != nil || len(bare.Items) != len(evs.Items) {
		t.Fatalf("TagEvents(s1) = %+v, %v", bare, err)
	}

	ex, err := c.Relationship(ctx, "zach", "ann")
	if err != nil || len(ex.Evidences) == 0 {
		t.Fatalf("Relationship = %+v, %v", ex, err)
	}
	if _, err := c.PeerRecommendations(ctx, "zach", "", 3); err != nil {
		t.Fatalf("PeerRecommendations: %v", err)
	}
	if _, err := c.ResourceRecommendations(ctx, "zach", true, "", 3); err != nil {
		t.Fatalf("ResourceRecommendations: %v", err)
	}
	if _, err := c.SuggestSessions(ctx, "aaron", "edbt13", "", 3); err != nil {
		t.Fatalf("SuggestSessions: %v", err)
	}
	res, err := c.Search(ctx, "graph partitioning", "", "", 5)
	if err != nil || len(res.Items) == 0 {
		t.Fatalf("Search = %+v, %v", res, err)
	}
	ctxRes, err := c.Search(ctx, "graph partitioning", "zach", "", 5)
	if err != nil || len(ctxRes.Items) == 0 {
		t.Fatalf("context Search = %+v, %v", ctxRes, err)
	}
	snips, err := c.Preview(ctx, "zach", "pres/pr1", 2)
	if err != nil || len(snips) == 0 {
		t.Fatalf("Preview = %+v, %v", snips, err)
	}
	sum, err := c.Digest(ctx, "aaron", 3)
	if err != nil || len(sum.Rows) == 0 {
		t.Fatalf("Digest = %+v, %v", sum, err)
	}
	comms, err := c.Communities(ctx, "", 0)
	if err != nil || len(comms.Items) == 0 {
		t.Fatalf("Communities = %+v, %v", comms, err)
	}
	hits, err := c.History(ctx, "zach", "checkin", false, "", 0)
	if err != nil || len(hits.Items) == 0 {
		t.Fatalf("History = %+v, %v", hits, err)
	}
	revs, err := c.ResourceRelationship(ctx, "ann", "p1")
	if err != nil || len(revs) == 0 {
		t.Fatalf("ResourceRelationship = %+v, %v", revs, err)
	}
	paths, err := c.KnowledgePaths(ctx, "user:ann", "session:s1", 2)
	if err != nil || len(paths) == 0 {
		t.Fatalf("KnowledgePaths = %+v, %v", paths, err)
	}
	if err := c.LogBrowse(ctx, "zach", "p1"); err != nil {
		t.Fatalf("LogBrowse: %v", err)
	}
	changes, err := c.ActivityChanges(ctx, 3, "", 0)
	if err != nil || len(changes.Items) == 0 {
		t.Fatalf("ActivityChanges = %+v, %v", changes, err)
	}
	if err := c.Refresh(ctx, true); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" || !h.Snapshot {
		t.Fatalf("Healthz = %+v, %v", h, err)
	}
}

// TestSDKErrorsAreTyped: non-2xx responses surface as *api.Error with
// the stable code and HTTP status.
func TestSDKErrorsAreTyped(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()

	_, err := c.GetUser(ctx, "ghost")
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *api.Error", err, err)
	}
	if ae.Code != api.CodeNotFound || ae.HTTPStatus != 404 {
		t.Fatalf("error = %+v", ae)
	}
	if !api.IsCode(err, api.CodeNotFound) {
		t.Fatal("IsCode(not_found) = false")
	}
	if err := c.CreateUser(ctx, api.User{}); !api.IsCode(err, api.CodeInvalidArgument) {
		t.Fatalf("empty user err = %v", err)
	}
}

// TestSDKBatch: one call ingests a mixed entity array.
func TestSDKBatch(t *testing.T) {
	c, p := newClient(t)
	ctx := context.Background()

	var ents []api.BatchEntity
	add := func(kind string, v any) {
		ent, err := api.NewBatchEntity(kind, v)
		if err != nil {
			t.Fatal(err)
		}
		ents = append(ents, ent)
	}
	add(api.KindUser, api.User{ID: "u1", Name: "One"})
	add(api.KindUser, api.User{ID: "u2", Name: "Two"})
	add(api.KindConference, api.Conference{ID: "c1", Name: "Conf"})
	add(api.KindConnection, api.ConnectRequest{A: "u1", B: "u2"})

	br, err := c.Batch(ctx, ents)
	if err != nil || br.Applied != 4 || br.Failed != 0 {
		t.Fatalf("Batch = %+v, %v", br, err)
	}
	if !p.Connected("u1", "u2") {
		t.Fatal("batch connection not applied")
	}
}

// TestSDKETagCache: repeated knowledge reads of an unchanged snapshot
// are served via 304 revalidation.
func TestSDKETagCache(t *testing.T) {
	c, p := newClient(t, client.WithETagCache())
	ctx := context.Background()
	seedSDK(t, c)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}

	first, err := c.Search(ctx, "graph partitioning", "", "", 5)
	if err != nil {
		t.Fatal(err)
	}
	_, hits0 := c.Stats()
	second, err := c.Search(ctx, "graph partitioning", "", "", 5)
	if err != nil {
		t.Fatal(err)
	}
	_, hits1 := c.Stats()
	if hits1 != hits0+1 {
		t.Fatalf("cache hits %d -> %d, want one 304 revalidation", hits0, hits1)
	}
	if len(first.Items) != len(second.Items) {
		t.Fatalf("cached page mismatch: %d vs %d items", len(first.Items), len(second.Items))
	}

	// A mutation + refresh rotates the generation: next read is a miss.
	if err := c.CreateUser(ctx, api.User{ID: "new", Name: "New"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(ctx, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, "graph partitioning", "", "", 5); err != nil {
		t.Fatal(err)
	}
	if _, hits2 := c.Stats(); hits2 != hits1 {
		t.Fatalf("stale tag wrongly revalidated: hits %d -> %d", hits1, hits2)
	}
}

// TestCollect walks pages to exhaustion.
func TestCollect(t *testing.T) {
	c, p := newClient(t)
	ctx := context.Background()
	const n = 9
	for i := 0; i < n; i++ {
		if err := p.RegisterUser(hive.User{ID: fmt.Sprintf("u%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := client.Collect(ctx, func(cur string) (api.Page[string], error) {
		return c.Users(ctx, cur, 4)
	})
	if err != nil || len(all) != n {
		t.Fatalf("Collect = %d items, %v", len(all), err)
	}
}

// openMember opens an elected member whose Manual elector is pinned to
// st, serves it, and closes both at cleanup.
func openMember(t *testing.T, self string, peers []string, st election.State) (*httptest.Server, *hive.Platform) {
	t.Helper()
	el := election.NewManual()
	el.Set(st)
	p, err := hive.Open(hive.Options{Dir: t.TempDir(), Cluster: &hive.ClusterConfig{SelfURL: self, Peers: peers, Election: el}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return ts, p
}

// TestSDKResolvesLeaderPastSilentPeer: a WithCluster client whose write
// meets a hint-less not_leader re-resolves the leader and lands the
// write well inside the 750 ms peer-probe budget, although the node it
// resolves through has a peer that accepts connections and never
// answers. Re-resolution reads healthz, which probes no peer; that
// node's cluster endpoint still does, and reports the silent peer dead
// after the budget.
func TestSDKResolvesLeaderPastSilentPeer(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		silent.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})
	silentURL := "http://" + silent.Addr().String()

	leader, err := hive.Open(hive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(server.New(leader))
	t.Cleanup(func() {
		lts.Close()
		leader.Close()
	})
	// The member the client resolves through follows the leader and has
	// the silent node among its peers.
	fts, follower := openMember(t, "http://follower.test", []string{lts.URL, silentURL},
		election.State{Role: election.Follower, Leader: lts.URL})
	// The member the client starts at knows no leader: its not_leader
	// carries no hint.
	lostTS, _ := openMember(t, "http://lost.test", nil, election.State{Role: election.Follower})
	deadline := time.Now().Add(10 * time.Second)
	for st := follower.State(); !st.Snapshot || st.LeaderURL != lts.URL; st = follower.State() {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not bootstrap: %+v", st.ReplicationHealth)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx := context.Background()
	c := client.New(lostTS.URL, client.WithCluster(fts.URL))
	start := time.Now()
	if err := c.CreateUser(ctx, api.User{ID: "routed", Name: "R"}); err != nil {
		t.Fatalf("write through re-resolution: %v", err)
	}
	if took := time.Since(start); took > 375*time.Millisecond {
		t.Fatalf("re-resolving the leader took %v, want well under the 750 ms peer-probe budget", took)
	}
	if c.Base() != lts.URL || c.Redirects() == 0 {
		t.Fatalf("client base %s after %d redirects, want the leader %s", c.Base(), c.Redirects(), lts.URL)
	}
	if _, err := leader.GetUser("routed"); err != nil {
		t.Fatalf("write did not land on the leader: %v", err)
	}

	cs, err := client.New(fts.URL).ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Peers) != 2 || !cs.Peers[0].Alive || cs.Peers[0].Role != api.RoleLeader ||
		cs.Peers[1].Alive || cs.Peers[1].Error == "" || cs.Peers[1].ProbeMS < 500 {
		t.Fatalf("cluster peers = %+v, want the leader alive and the silent peer dead after the probe budget", cs.Peers)
	}
}

// TestSDKInflatesGzip: the SDK asks for gzip itself and inflates it
// through its pooled readers, so gzip'd and identity bodies both decode,
// repeatedly, through the default transport and through one given
// WithHTTPClient; a gzip body cut short is an error, not a short answer.
func TestSDKInflatesGzip(t *testing.T) {
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write([]byte(`{"id":"zach","name":"Zach","affiliation":"ASU"}`))
	zw.Close()
	var truncate atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Header.Get("Accept-Encoding") != "gzip" || r.URL.Path != "/api/v1/users/zach" {
			w.Write([]byte(`{"id":"ann","name":"Ann"}`))
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		if truncate.Load() {
			w.Write(zipped.Bytes()[:zipped.Len()-6])
			return
		}
		w.Write(zipped.Bytes())
	}))
	defer ts.Close()
	ctx := context.Background()
	for _, c := range []*client.Client{client.New(ts.URL), client.New(ts.URL, client.WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))} {
		for i := 0; i < 3; i++ {
			if u, err := c.GetUser(ctx, "zach"); err != nil || u.Name != "Zach" || u.Affiliation != "ASU" {
				t.Fatalf("gzip'd body: %+v, %v", u, err)
			}
			if u, err := c.GetUser(ctx, "ann"); err != nil || u.Name != "Ann" {
				t.Fatalf("identity body: %+v, %v", u, err)
			}
		}
		truncate.Store(true)
		if u, err := c.GetUser(ctx, "zach"); err == nil {
			t.Fatalf("a truncated gzip body decoded to %+v", u)
		}
		truncate.Store(false)
	}
}

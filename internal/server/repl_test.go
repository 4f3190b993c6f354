package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/election"
	"hive/internal/social"
)

// newLeader opens a durable platform (replication needs a journal) and
// serves it over httptest.
func newLeader(t *testing.T) (*httptest.Server, *hive.Platform) {
	t.Helper()
	p, err := hive.Open(hive.Options{Dir: t.TempDir()})
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

// newFollower opens an elected follower of the given leader URL — a
// Manual elector pinned to the follower role, the minimal replacement
// for the removed static FollowURL mode — and serves it. It blocks
// until the async bootstrap has built a serving snapshot, restoring the
// synchronous-boot semantics the static mode used to guarantee.
func newFollower(t *testing.T, leaderURL string) (*httptest.Server, *hive.Platform) {
	t.Helper()
	el := election.NewManual()
	el.Set(election.State{Role: election.Follower, Leader: leaderURL})
	p, err := hive.Open(hive.Options{
		Dir: t.TempDir(),
		Cluster: &hive.ClusterConfig{
			SelfURL:  "http://follower.test",
			Election: el,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	deadline := time.Now().Add(30 * time.Second)
	for st := p.State(); !st.Snapshot || st.LeaderURL != leaderURL; st = p.State() {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not bootstrap from %s: leader hint %q, lastErr %q",
				leaderURL, st.LeaderURL, st.LastReplicationError)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ts, p
}

// waitConverged blocks until the follower has folded every leader event
// into its serving snapshot.
func waitConverged(t *testing.T, leader, follower *hive.Platform, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		want := leader.Store().ChangeSeq()
		if st := follower.State(); st.AppliedSeq >= want && !st.Stale {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := follower.State()
	t.Fatalf("follower did not converge: applied %d, leader seq %d, lag %d, lastErr %q",
		st.AppliedSeq, leader.Store().ChangeSeq(), st.LagEvents, st.LastReplicationError)
}

// seedLeader loads a small base corpus through the platform API.
func seedLeader(t *testing.T, p *hive.Platform, users int) {
	t.Helper()
	err := p.Store().Batched(func() error {
		for i := 0; i < users; i++ {
			if err := p.RegisterUser(hive.User{
				ID: fmt.Sprintf("u%02d", i), Name: fmt.Sprintf("User %d", i),
				Interests: []string{"graphs", "databases"}[i%2 : i%2+1],
			}); err != nil {
				return err
			}
		}
		if err := p.CreateConference(hive.Conference{ID: "conf", Name: "Conf"}); err != nil {
			return err
		}
		return p.CreateSession(hive.Session{ID: "s1", ConferenceID: "conf", Title: "Graphs", Hashtag: "#graphs"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaderFollowerConvergence is the randomized interleaving test:
// concurrent writers hammer the leader while the follower tails; once
// drained, the follower's results must be bit-identical to the
// leader's.
func TestLeaderFollowerConvergence(t *testing.T) {
	ts, leader := newLeader(t)
	seedLeader(t, leader, 12)
	_, follower := newFollower(t, ts.URL)

	if st := follower.State(); st.Role != api.RoleFollower || st.LeaderURL != ts.URL {
		t.Fatalf("follower role = %s, leader %q", st.Role, st.LeaderURL)
	}

	// Randomized write interleaving: 4 writers, each with its own
	// seeded stream, mixing entity kinds.
	var wg sync.WaitGroup
	var failed atomic.Int32
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < 25; i++ {
				author := fmt.Sprintf("u%02d", rng.Intn(12))
				var err error
				switch rng.Intn(5) {
				case 0:
					err = leader.PublishPaper(hive.Paper{
						ID:    fmt.Sprintf("p-%d-%d", w, i),
						Title: fmt.Sprintf("Paper %d %d on random graphs", w, i),
						Abstract: fmt.Sprintf("Abstract %d about distributed journals and replication, variant %d.",
							i, rng.Intn(100)),
						Authors: []string{author}, ConferenceID: "conf", SessionID: "s1",
					})
				case 1:
					err = leader.CheckIn("s1", author)
				case 2:
					other := fmt.Sprintf("u%02d", (rng.Intn(11)+w*3+i)%12)
					if other == author {
						other = "u00"
					}
					if other == author {
						other = "u01"
					}
					err = leader.Follow(author, other)
				case 3:
					err = leader.Ask(hive.Question{
						ID: fmt.Sprintf("q-%d-%d", w, i), Author: author, Target: "s1",
						Text: fmt.Sprintf("Question %d about replication lag?", i),
					})
				case 4:
					err = leader.RegisterUser(hive.User{
						ID: fmt.Sprintf("w%d-%d", w, i), Name: "New",
						Interests: []string{"replication"},
					})
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					failed.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() > 0 {
		t.FailNow()
	}

	waitConverged(t, leader, follower, 30*time.Second)

	leng, err := leader.Engine()
	if err != nil {
		t.Fatal(err)
	}
	feng, err := follower.Engine()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"random graphs", "distributed journals", "replication lag", "databases"} {
		lres := leng.Search(q, 10)
		fres := feng.Search(q, 10)
		if !reflect.DeepEqual(lres, fres) {
			t.Fatalf("search %q diverges:\nleader:   %+v\nfollower: %+v", q, lres, fres)
		}
	}
	for _, u := range []string{"u00", "u05", "u11"} {
		lres := leng.SearchWithContext(u, "replication graphs", 10)
		fres := feng.SearchWithContext(u, "replication graphs", 10)
		if !reflect.DeepEqual(lres, fres) {
			t.Fatalf("context search for %s diverges", u)
		}
		// Store-level reads (feeds) replicate byte-for-byte too.
		if !reflect.DeepEqual(leader.Feed(u, 20), follower.Feed(u, 20)) {
			t.Fatalf("feed for %s diverges", u)
		}
	}
	if got, want := follower.Attendees("s1"), leader.Attendees("s1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("attendees diverge: %v vs %v", got, want)
	}
}

// A publish on the leader becomes searchable on the follower quickly
// (the acceptance bound is < 1s; the long-poll wakes the follower on
// append, so propagation is one delta apply away).
func TestFollowerFreshness(t *testing.T) {
	ts, leader := newLeader(t)
	seedLeader(t, leader, 4)
	_, follower := newFollower(t, ts.URL)
	waitConverged(t, leader, follower, 10*time.Second)

	if err := leader.PublishPaper(hive.Paper{
		ID: "fresh", Title: "Freshness bound over replication",
		Abstract: "Visible within one second.", Authors: []string{"u00"},
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		eng := follower.Snapshot()
		if eng != nil {
			if res := eng.Search("freshness bound", 5); len(res) > 0 {
				if d := time.Since(start); d > time.Second {
					t.Logf("warning: propagation took %v (target < 1s)", d)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("publish on leader not searchable on follower within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	ts, leader := newLeader(t)
	seedLeader(t, leader, 2)
	fts, follower := newFollower(t, ts.URL)

	// Platform-level: the typed error names the leader.
	err := follower.RegisterUser(hive.User{ID: "x", Name: "X"})
	var nle *hive.NotLeaderError
	if !errors.As(err, &nle) || nle.Leader != ts.URL {
		t.Fatalf("RegisterUser on follower = %v", err)
	}

	// HTTP-level: 409 + not_leader envelope with the leader URL in details.
	resp := post(t, fts, "/api/v1/users", api.User{ID: "x", Name: "X"})
	status, ae := decodeEnvelope(t, resp)
	if status != http.StatusConflict || ae.Code != api.CodeNotLeader {
		t.Fatalf("follower write = %d %q", status, ae.Code)
	}
	if got := ae.Details["leader"]; got != ts.URL {
		t.Fatalf("details.leader = %v, want %q", got, ts.URL)
	}

	// A batch meets the same write fence: the same envelope — code,
	// message, leader, epoch and shard — as the single write, and nothing
	// of it applies.
	ent, err := api.NewBatchEntity(api.KindUser, api.User{ID: "y", Name: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(t, fts, "/api/v1/batch", api.BatchRequest{Entities: []api.BatchEntity{ent}})
	bstatus, bae := decodeEnvelope(t, resp)
	if bstatus != status || bae.Code != ae.Code || bae.Message != ae.Message || !reflect.DeepEqual(bae.Details, ae.Details) {
		t.Fatalf("follower batch = %d %+v, want the single write's %d %+v", bstatus, bae, status, ae)
	}
	if _, err := follower.GetUser("y"); err == nil {
		t.Fatal("a refused batch applied on the follower")
	}

	// A cluster-aware SDK aimed at the follower replays the rejected
	// write at the hinted leader under the same trace ID, and each
	// server's trace ring records it with its own status.
	c := client.New(fts.URL, client.WithCluster(ts.URL))
	if err := c.CreateUser(context.Background(), api.User{ID: "traced", Name: "T"}); err != nil || c.Redirects() < 1 {
		t.Fatalf("redirected write = %v after %d redirects, want success via the hint", err, c.Redirects())
	}
	tid := c.LastTraceID()
	if tr := recordedTrace(t, fts.URL, tid); tr.Status != http.StatusConflict {
		t.Fatalf("follower recorded %s with status %d, want 409", tid, tr.Status)
	}
	if tr := recordedTrace(t, ts.URL, tid); tr.Status < 200 || tr.Status >= 300 {
		t.Fatalf("leader recorded %s with status %d, want 2xx", tid, tr.Status)
	}

	// Reads keep working.
	if _, err := follower.GetUser("u00"); err != nil {
		t.Fatalf("follower read: %v", err)
	}
}

// TestLeaderRestartLosesNoAcknowledgedEvents kills and restarts the
// leader process-equivalent (platform + server) behind a stable URL:
// the journal replay resumes at the persisted sequence and the follower
// reconnects and converges without losing acknowledged writes.
func TestLeaderRestartLosesNoAcknowledgedEvents(t *testing.T) {
	dir := t.TempDir()
	leader1, err := hive.Open(hive.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Stable front URL over a swappable backend, standing in for a
	// restarted process re-binding its address.
	var backend atomic.Pointer[http.Handler]
	setBackend := func(h http.Handler) { backend.Store(&h) }
	setBackend(New(leader1))
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*backend.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()

	seedLeader(t, leader1, 4)
	_, follower := newFollower(t, front.URL)
	waitConverged(t, leader1, follower, 10*time.Second)

	// Acknowledged write, then "kill" the leader.
	if err := leader1.PublishPaper(hive.Paper{
		ID: "acked", Title: "Acknowledged before crash",
		Abstract: "Must survive the restart.", Authors: []string{"u00"},
	}); err != nil {
		t.Fatal(err)
	}
	seqBefore := leader1.Store().ChangeSeq()
	setBackend(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "leader down", http.StatusBadGateway)
	}))
	if err := leader1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data dir: the sequence resumes, nothing is lost.
	leader2, err := hive.Open(hive.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	if got := leader2.Store().ChangeSeq(); got != seqBefore {
		t.Fatalf("restarted ChangeSeq = %d, want %d", got, seqBefore)
	}
	if err := leader2.Refresh(); err != nil {
		t.Fatal(err)
	}
	setBackend(New(leader2))

	// Post-restart writes extend the same journal.
	if err := leader2.PublishPaper(hive.Paper{
		ID: "after", Title: "Published after restart",
		Abstract: "Continues the sequence.", Authors: []string{"u01"},
	}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader2, follower, 30*time.Second)

	feng, err := follower.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if res := feng.Search("acknowledged crash", 5); len(res) == 0 {
		t.Fatal("acknowledged pre-restart write lost on follower")
	}
	if res := feng.Search("published after restart", 5); len(res) == 0 {
		t.Fatal("post-restart write did not reach follower")
	}
}

// A "leader" whose journal tail is behind the follower's applied
// sequence (repurposed data dir, restored backup, misconfigured peers)
// must trigger a re-bootstrap — not a silent caught-up report over
// unrelated state.
func TestFollowerResyncsFromRegressedLeader(t *testing.T) {
	leaderA, err := hive.Open(hive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderA.Close()
	var backend atomic.Pointer[http.Handler]
	setBackend := func(h http.Handler) { backend.Store(&h) }
	setBackend(New(leaderA))
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*backend.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()
	seedLeader(t, leaderA, 8)
	_, follower := newFollower(t, front.URL)
	waitConverged(t, leaderA, follower, 10*time.Second)
	if follower.State().AppliedSeq == 0 {
		t.Fatal("follower applied nothing from leader A")
	}

	// Swap in an unrelated leader with a much shorter history.
	leaderB, err := hive.Open(hive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderB.Close()
	if err := leaderB.RegisterUser(hive.User{ID: "b-only", Name: "B", Interests: []string{"resync"}}); err != nil {
		t.Fatal(err)
	}
	if err := leaderB.Refresh(); err != nil {
		t.Fatal(err)
	}
	if leaderB.Store().ChangeSeq() >= leaderA.Store().ChangeSeq() {
		t.Fatal("test setup: leader B must have a shorter history")
	}
	setBackend(New(leaderB))
	// The scenario is a dead process whose address now serves unrelated
	// state: kill leader A so its long-poll waiters release instead of
	// holding the follower's in-flight request for the full wait.
	leaderA.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := follower.State()
		if st.Bootstraps >= 2 && st.AppliedSeq == leaderB.Store().ChangeSeq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not resync: bootstraps %d, applied %d (leader B seq %d), lastErr %q",
				st.Bootstraps, st.AppliedSeq, leaderB.Store().ChangeSeq(), st.LastReplicationError)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The follower now serves leader B's world, not leader A's.
	if _, err := follower.GetUser("b-only"); err != nil {
		t.Fatalf("follower missing leader B state: %v", err)
	}
	if _, err := follower.GetUser("u00"); err == nil {
		t.Fatal("follower still serves leader A state after resync")
	}
}

// TestFollowerResyncsPastOlderTermHistory drives a follower whose
// leader, at the follower's own term, feeds it a batch journaled under
// an older term: the leader's own history from before it was elected,
// which the bootstrap snapshot predated. That batch is no deposed
// leader's write to fence — fencing it would retry it forever — so the
// follower re-syncs from the leader's snapshot and converges. The
// stand-in leader serves a real epoch-1 platform's feed and snapshot at
// epoch 3, its first snapshot taken before the platform's last write.
func TestFollowerResyncsPastOlderTermHistory(t *testing.T) {
	old, err := hive.Open(hive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.Store().SetEpoch(1)
	seedLeader(t, old, 4)
	staleSeq, staleEntries, err := old.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := old.RegisterUser(hive.User{ID: "late", Name: "Late", Interests: []string{"resync"}}); err != nil {
		t.Fatal(err)
	}

	const term = 3
	var snapshots atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/replication/snapshot", func(w http.ResponseWriter, r *http.Request) {
		seq, entries := staleSeq, staleEntries
		if snapshots.Add(1) > 1 {
			var err error
			if seq, entries, err = old.ReplicationSnapshot(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		out := api.ReplicationSnapshot{Seq: seq, Epoch: term}
		for _, e := range entries {
			out.Entries = append(out.Entries, api.KVEntry{Key: e.Key, Value: e.Val})
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("GET /api/v1/replication/events", func(w http.ResponseWriter, r *http.Request) {
		var from uint64
		fmt.Sscan(r.URL.Query().Get("from"), &from)
		batches, tail, err := old.ReplicationFeed(r.Context(), from, 256, 50*time.Millisecond, ^uint64(0))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(api.ReplicationEvents{Batches: batches, Tail: tail, Epoch: term})
	})
	standIn := httptest.NewServer(mux)
	defer standIn.Close()

	_, follower := newFollower(t, standIn.URL)
	waitConverged(t, old, follower, 10*time.Second)
	if _, err := follower.GetUser("late"); err != nil {
		t.Fatalf("follower missing the older-term batch's write: %v", err)
	}
	if st := follower.State(); st.Fenced != 0 || st.Bootstraps < 2 || st.Epoch != term {
		t.Fatalf("follower state: fenced %d, bootstraps %d, epoch %d; want 0, >= 2, %d", st.Fenced, st.Bootstraps, st.Epoch, term)
	}
}

// TestOnlyTheLeaderServesSnapshots pins the bootstrap source: a node
// that is not leading — a follower, or an election winner that deferred
// to a more caught-up peer — answers the snapshot request with the
// not_leader envelope, so no follower imports its possibly shorter
// history over its own.
func TestOnlyTheLeaderServesSnapshots(t *testing.T) {
	ts, leader := newLeader(t)
	seedLeader(t, leader, 2)
	fts, _ := newFollower(t, ts.URL)

	resp, err := http.Get(fts.URL + "/api/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	status, ae := decodeEnvelope(t, resp)
	if status != http.StatusConflict || ae.Code != api.CodeNotLeader {
		t.Fatalf("follower snapshot = %d %q, want 409 %q", status, ae.Code, api.CodeNotLeader)
	}
	if got := ae.Details["leader"]; got != ts.URL {
		t.Fatalf("details.leader = %v, want %q", got, ts.URL)
	}
}

func TestReplicationEndpointsContract(t *testing.T) {
	ts, leader := newLeader(t)
	seedLeader(t, leader, 3)

	// Snapshot: watermark + non-empty image.
	resp, err := http.Get(ts.URL + "/api/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap api.ReplicationSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Seq != leader.Store().ChangeSeq() || len(snap.Entries) == 0 {
		t.Fatalf("snapshot = seq %d, %d entries", snap.Seq, len(snap.Entries))
	}

	// Events from 0: every batch, tail == current seq.
	resp, err = http.Get(ts.URL + "/api/v1/replication/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var evs api.ReplicationEvents
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if evs.Tail != leader.Store().ChangeSeq() || len(evs.Batches) == 0 {
		t.Fatalf("events = tail %d, %d batches", evs.Tail, len(evs.Batches))
	}
	if evs.Batches[0].First != 1 {
		t.Fatalf("first batch starts at %d", evs.Batches[0].First)
	}

	// Caught-up poll without wait returns immediately and empty.
	resp, err = http.Get(fmt.Sprintf("%s/api/v1/replication/events?from=%d", ts.URL, evs.Tail))
	if err != nil {
		t.Fatal(err)
	}
	var caught api.ReplicationEvents
	if err := json.NewDecoder(resp.Body).Decode(&caught); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(caught.Batches) != 0 || caught.Tail != evs.Tail {
		t.Fatalf("caught-up poll = %+v", caught)
	}

	// Healthz reports the leader role and journal range.
	resp, err = http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Replication.Role != api.RoleLeader || h.Replication.JournalTail != evs.Tail {
		t.Fatalf("healthz replication = %+v", h.Replication)
	}
}

func TestFollowerHealthzReportsLag(t *testing.T) {
	ts, leader := newLeader(t)
	seedLeader(t, leader, 3)
	fts, follower := newFollower(t, ts.URL)
	waitConverged(t, leader, follower, 10*time.Second)

	resp, err := http.Get(fts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r := h.Replication
	if r.Role != api.RoleFollower || r.LeaderURL != ts.URL {
		t.Fatalf("follower healthz = %+v", r)
	}
	if r.AppliedSeq != leader.Store().ChangeSeq() || r.LagEvents != 0 {
		t.Fatalf("lag report = applied %d, lag %d (leader seq %d)",
			r.AppliedSeq, r.LagEvents, leader.Store().ChangeSeq())
	}
}

// An in-memory platform has no journal: replication reads answer with a
// typed error instead of a hang or a panic.
func TestInMemoryNodeCannotLead(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/replication/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	status, ae := decodeEnvelope(t, resp)
	if status != http.StatusBadRequest || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("in-memory replication read = %d %q", status, ae.Code)
	}
}

// The journal is a durable node's only log: a write whose append fails
// gets the error envelope, not a 201, and every later write gets the
// same envelope until the node is reopened. Reads still answer, and
// healthz names the failure.
func TestJournalFailureRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	p, err := hive.Open(hive.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	ctx := context.Background()
	c := client.New(ts.URL)
	if err := c.CreateUser(ctx, api.User{ID: "a", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	// Fill the active segment past its rotation size, then put a
	// directory where the next segment goes: the append that rotates
	// into it fails.
	if err := p.Store().PutUser(social.User{ID: "big", Name: strings.Repeat("x", 4<<20)}); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(dir, "journal", fmt.Sprintf("journal-%016x.seg", p.Store().ChangeSeq()+1))
	if err := os.Mkdir(next, 0o755); err != nil {
		t.Fatal(err)
	}
	var first, second *api.Error
	if err := c.CreateUser(ctx, api.User{ID: "b", Name: "B"}); !errors.As(err, &first) {
		t.Fatalf("write with a failing journal: %v, want an error envelope", err)
	}
	if err := c.CreateUser(ctx, api.User{ID: "c", Name: "C"}); !errors.As(err, &second) || second.Message != first.Message {
		t.Fatalf("next write: %v, want the same envelope as %v", err, first)
	}
	if _, err := c.GetUser(ctx, "a"); err != nil {
		t.Fatalf("read after the journal failed: %v", err)
	}
	hz, err := c.Healthz(ctx)
	if err != nil || hz.Replication.JournalError == "" {
		t.Fatalf("healthz journal_error = %q (%v), want the failure", hz.Replication.JournalError, err)
	}
}

package server

// Quorum-write tests: synchronous durability (k follower acks before a
// write response returns), the cluster commit index, bounded typed
// degradation when the quorum is unreachable, the caught-up promotion
// gate, and — the headline — TestQuorumNoLostWrites, which drives
// randomized writers through fault-injected replication links and a
// leader kill and proves every acknowledged write survives promotion.
// All in-process and -race-clean; make race-nightly runs the no-lost-
// writes test explicitly.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/election"
	"hive/internal/faultnet"
)

// startQuorumNode is startClusterNode with the quorum knobs exposed:
// write quorum k, ack timeout, and the fault-injection transport for
// the node's replication client.
func startQuorumNode(t *testing.T, l net.Listener, self string, peers []string, el election.Elector, k int, ackTimeout time.Duration, rt http.RoundTripper) *clusterNode {
	t.Helper()
	p, err := hive.Open(hive.Options{
		Dir: t.TempDir(),
		Cluster: &hive.ClusterConfig{
			SelfURL:              self,
			Peers:                peers,
			Election:             el,
			QuorumWrites:         k,
			AckTimeout:           ackTimeout,
			ReplicationTransport: rt,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: New(p)}}
	ts.Start()
	n := &clusterNode{url: self, ts: ts, p: p}
	t.Cleanup(n.kill)
	return n
}

// hostOf strips the scheme off a node URL for faultnet partitioning.
func hostOf(u string) string { return strings.TrimPrefix(u, "http://") }

// TestQuorumWriteAdvancesCommitIndex is the happy path: with k=1 and
// two live followers, writes return only after an ack, the leader's
// commit index covers every acknowledged sequence, healthz reports the
// per-follower ack table, and followers adopt the leader-published
// commit index from the poll feed.
func TestQuorumWriteAdvancesCommitIndex(t *testing.T) {
	elA, elB, elF := election.NewManual(), election.NewManual(), election.NewManual()
	lA, urlA := listenLocal(t)
	lB, urlB := listenLocal(t)
	lF, urlF := listenLocal(t)

	elA.Set(election.State{Role: election.Leader, Epoch: 1, Leader: urlA})
	a := startQuorumNode(t, lA, urlA, []string{urlB, urlF}, elA, 1, 5*time.Second, nil)
	waitRole(t, a.p, "leader", 5*time.Second)
	elB.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	b := startQuorumNode(t, lB, urlB, []string{urlA, urlF}, elB, 1, 5*time.Second, nil)
	elF.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	f := startQuorumNode(t, lF, urlF, []string{urlA, urlB}, elF, 1, 5*time.Second, nil)

	for i := 0; i < 10; i++ {
		if err := a.p.RegisterUser(hive.User{ID: fmt.Sprintf("q%02d", i), Name: "Q", Interests: []string{"quorum"}}); err != nil {
			t.Fatalf("quorum write %d: %v", i, err)
		}
	}
	// The write only returned because a follower acked it: the commit
	// index must already cover the store's sequence, with no extra wait.
	seq := a.p.Store().ChangeSeq()
	if ci := a.p.CommitIndex(); ci < seq {
		t.Fatalf("commit index %d below acknowledged seq %d", ci, seq)
	}

	// healthz on the leader reports the durability mode and ack table.
	var h api.Health
	hc := client.New(urlA)
	var err error
	if h, err = hc.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Replication.QuorumWrites != 1 {
		t.Fatalf("healthz quorum_writes = %d, want 1", h.Replication.QuorumWrites)
	}
	if h.Replication.CommitIndex < seq {
		t.Fatalf("healthz commit_index = %d, want >= %d", h.Replication.CommitIndex, seq)
	}
	if len(h.Replication.FollowerAcks) == 0 {
		t.Fatal("healthz reports no follower acks on a quorum-writing leader")
	}
	for _, fa := range h.Replication.FollowerAcks {
		if fa.URL != urlB && fa.URL != urlF {
			t.Fatalf("unexpected follower in ack table: %s", fa.URL)
		}
	}

	// Followers adopt the leader-published commit index (capped at their
	// own applied position, which converges to the leader's sequence).
	for _, n := range []*clusterNode{b, f} {
		waitConverged(t, a.p, n.p, 20*time.Second)
		deadline := time.Now().Add(10 * time.Second)
		for n.p.CommitIndex() < seq {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s commit index stuck at %d, want >= %d", n.url, n.p.CommitIndex(), seq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestQuorumUnavailableTypedDegradation: with k=1 and no reachable
// follower, a write degrades within the ack timeout to the typed
// quorum_unavailable error — over HTTP a 503 with acked/needed details —
// and recovers as soon as a follower returns. The failing write stays
// journaled: recovery replicates it.
func TestQuorumUnavailableTypedDegradation(t *testing.T) {
	elA, elB := election.NewManual(), election.NewManual()
	lA, urlA := listenLocal(t)
	lB, urlB := listenLocal(t)

	elA.Set(election.State{Role: election.Leader, Epoch: 1, Leader: urlA})
	a := startQuorumNode(t, lA, urlA, []string{urlB}, elA, 1, 400*time.Millisecond, nil)
	waitRole(t, a.p, "leader", 5*time.Second)

	// No follower yet: the platform-level write fails typed and bounded.
	start := time.Now()
	err := a.p.RegisterUser(hive.User{ID: "lonely", Name: "Lonely"})
	var que *hive.QuorumUnavailableError
	if !errors.As(err, &que) {
		t.Fatalf("write without followers: got %v, want QuorumUnavailableError", err)
	}
	if que.Acked != 0 || que.Needed != 1 {
		t.Fatalf("degradation details acked=%d needed=%d, want 0/1", que.Acked, que.Needed)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("degradation took %v, want bounded by the 400ms ack timeout", waited)
	}

	// Same failure over HTTP: 503 + quorum_unavailable + details.
	c := client.New(urlA)
	err = c.CreateUser(context.Background(), api.User{ID: "lonely2", Name: "Lonely"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeQuorumUnavailable {
		t.Fatalf("HTTP write without followers: got %v, want code %s", err, api.CodeQuorumUnavailable)
	}
	if ae.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("quorum_unavailable arrived with HTTP %d, want 503", ae.HTTPStatus)
	}
	if got, ok := ae.Details["needed"].(float64); !ok || int(got) != 1 {
		t.Fatalf("quorum_unavailable details %v lack needed=1", ae.Details)
	}

	// A follower joins: acks flow, writes commit, and the previously
	// unproven writes are replicated along the way.
	elB.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	b := startQuorumNode(t, lB, urlB, []string{urlA}, elB, 1, 5*time.Second, nil)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := a.p.RegisterUser(hive.User{ID: "recovered", Name: "R"}); err == nil {
			break
		} else if !errors.As(err, &que) {
			t.Fatalf("recovery write: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never recovered after the follower joined")
		}
	}
	waitConverged(t, a.p, b.p, 20*time.Second)
	for _, id := range []string{"lonely", "lonely2", "recovered"} {
		if _, err := b.p.GetUser(id); err != nil {
			t.Fatalf("follower missing %s after recovery: %v", id, err)
		}
	}
}

// TestAsyncWritesCanBeLostOnFailover is the contrast fixture for the
// no-lost-writes guarantee: in async mode (k=0) a leader acknowledges
// writes its partitioned follower never saw, and promoting that
// follower loses them — acknowledged-but-gone. The identical topology
// at k=1 refuses the ack instead (quorum_unavailable), so the caller is
// never lied to. Together they demonstrate what the quorum buys.
func TestAsyncWritesCanBeLostOnFailover(t *testing.T) {
	run := func(t *testing.T, k int) (lostOnB bool, writeErr error) {
		elA, elB := election.NewManual(), election.NewManual()
		lA, urlA := listenLocal(t)
		lB, urlB := listenLocal(t)

		// B's replication link to A is cut from the start: it can never
		// bootstrap or ack.
		ft := faultnet.New(nil, faultnet.Config{Seed: 7})
		ft.Partition(hostOf(urlA))

		elA.Set(election.State{Role: election.Leader, Epoch: 1, Leader: urlA})
		a := startQuorumNode(t, lA, urlA, []string{urlB}, elA, k, 400*time.Millisecond, nil)
		waitRole(t, a.p, "leader", 5*time.Second)
		elB.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
		b := startQuorumNode(t, lB, urlB, []string{urlA}, elB, k, 400*time.Millisecond, ft)

		writeErr = a.p.RegisterUser(hive.User{ID: "volatile", Name: "V"})

		// Fail A over to the partitioned B.
		a.kill()
		elB.Set(election.State{Role: election.Leader, Epoch: 2, Leader: urlB})
		waitRole(t, b.p, "leader", 10*time.Second)
		_, err := b.p.GetUser("volatile")
		return err != nil, writeErr
	}

	t.Run("async", func(t *testing.T) {
		lost, writeErr := run(t, 0)
		if writeErr != nil {
			t.Fatalf("async write failed: %v", writeErr)
		}
		if !lost {
			t.Fatal("partitioned follower somehow has the write; the contrast fixture is broken")
		}
	})
	t.Run("quorum", func(t *testing.T) {
		_, writeErr := run(t, 1)
		var que *hive.QuorumUnavailableError
		if !errors.As(writeErr, &que) {
			t.Fatalf("quorum write against a partitioned follower: got %v, want QuorumUnavailableError", writeErr)
		}
	})
}

// TestPromotionDefersToMoreCaughtUpPeer: a follower that wins an
// election while a reachable peer holds more history yields instead of
// promoting — and after maxPromotionDeferrals consecutive yields leads
// anyway, so an unclaiming peer cannot leave the cluster leaderless.
// The gate reads each peer's healthz replication block through the SDK
// (Platform.ProbePeers, the probe the cluster endpoint uses too), so
// this test also exercises that probe against live peers.
func TestPromotionDefersToMoreCaughtUpPeer(t *testing.T) {
	elA, elB, elC := election.NewManual(), election.NewManual(), election.NewManual()
	lA, urlA := listenLocal(t)
	lB, urlB := listenLocal(t)
	lC, urlC := listenLocal(t)

	// C's link to the leader is cut: B converges, C stays empty.
	ft := faultnet.New(nil, faultnet.Config{Seed: 11})
	ft.Partition(hostOf(urlA))

	elA.Set(election.State{Role: election.Leader, Epoch: 1, Leader: urlA})
	a := startQuorumNode(t, lA, urlA, []string{urlB, urlC}, elA, 0, 0, nil)
	waitRole(t, a.p, "leader", 5*time.Second)
	seedLeader(t, a.p, 8)
	elB.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	b := startQuorumNode(t, lB, urlB, []string{urlA, urlC}, elB, 0, 0, nil)
	elC.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	c := startQuorumNode(t, lC, urlC, []string{urlA, urlB}, elC, 0, 0, ft)
	dumpStatesOnFailure(t, []*clusterNode{a, b, c})
	waitConverged(t, a.p, b.p, 20*time.Second)
	if got := c.p.State().AppliedSeq; got != 0 {
		t.Fatalf("partitioned node applied %d events; fixture broken", got)
	}

	a.kill()

	// C "wins" the election while B is reachable and ahead: the gate must
	// defer, not promote.
	waitDeferrals := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for c.p.State().Deferrals < want {
			if time.Now().After(deadline) {
				t.Fatalf("deferrals stuck at %d, want %d (role %s)", c.p.State().Deferrals, want, c.p.State().Role)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		elC.Set(election.State{Role: election.Leader, Epoch: 1 + i, Leader: urlC})
		waitDeferrals(i)
		if c.p.State().Role != "follower" {
			t.Fatalf("node promoted on deferral round %d despite a more caught-up peer", i)
		}
	}

	// The deferral budget is spent: the next win promotes regardless, so
	// a peer that never claims cannot wedge the cluster leaderless.
	elC.Set(election.State{Role: election.Leader, Epoch: 9, Leader: urlC})
	waitRole(t, c.p, "leader", 10*time.Second)
	if got := c.p.State().Deferrals; got != 3 {
		t.Fatalf("deferrals after capped promotion = %d, want exactly 3", got)
	}
}

// TestQuorumNoLostWrites is the headline robustness test, run under
// -race by make race-nightly: a three-node FileLease cluster at k=1
// with fault-injected replication links (dropped polls, delayed acks)
// takes randomized concurrent writes, the leader is killed mid-stream,
// and after the surviving nodes elect and converge every write that was
// ever acknowledged to a client must exist on the new leader. The
// commit index must also never regress on a surviving node.
func TestQuorumNoLostWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failover test; skipped in -short")
	}
	leaseDir := t.TempDir()
	ttl := 500 * time.Millisecond

	var ls [3]net.Listener
	var urls [3]string
	for i := range ls {
		ls[i], urls[i] = listenLocal(t)
	}
	peersOf := func(i int) []string {
		var ps []string
		for j, u := range urls {
			if j != i {
				ps = append(ps, u)
			}
		}
		return ps
	}
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		lease, err := election.NewFileLease(election.LeaseConfig{Dir: leaseDir, Self: urls[i], TTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		// Every node's replication client runs over a lossy link: 3% of
		// polls dropped, 0-3ms of jitter on the rest, occasional duplicate
		// delivery on the ack path. Seeded per node for reproducibility.
		ft := faultnet.New(nil, faultnet.Config{
			Seed:     int64(100 + i),
			DropProb: 0.03,
			Jitter:   3 * time.Millisecond,
			DupProb:  0.02,
		})
		nodes[i] = startQuorumNode(t, ls[i], urls[i], peersOf(i), lease, 1, 5*time.Second, ft)
	}
	dumpStatesOnFailure(t, nodes)

	leader1 := waitLeaderAmong(t, nodes, 10*time.Second)

	// acked records every write a client saw succeed — the set that must
	// survive no matter what happens to the leader.
	var ackedMu sync.Mutex
	acked := map[string]bool{}
	writeOne := func(c *client.Client, id string) {
		deadline := time.Now().Add(45 * time.Second)
		for {
			err := c.CreateUser(context.Background(), api.User{ID: id, Name: "W " + id, Interests: []string{"quorum"}})
			if err == nil {
				ackedMu.Lock()
				acked[id] = true
				ackedMu.Unlock()
				return
			}
			// quorum_unavailable, not_leader and transport errors are all
			// legitimate mid-failover; the writer retries like a queue
			// would. Durability is only claimed for writes that returned
			// success.
			if time.Now().After(deadline) {
				t.Errorf("write %s never accepted: %v", id, err)
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	const writers, perWriter = 4, 6
	runRound := func(prefix string) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := client.New(urls[w%len(urls)], client.WithCluster(urls[:]...))
				for i := 0; i < perWriter; i++ {
					writeOne(c, fmt.Sprintf("%s-%d-%02d", prefix, w, i))
				}
			}(w)
		}
		wg.Wait()
	}

	runRound("pre")

	// Snapshot the surviving followers' commit indices, then kill the
	// leader cold (connections die, lease lapses).
	preCommit := map[string]uint64{}
	for _, n := range nodes {
		if n != leader1 {
			preCommit[n.url] = n.p.CommitIndex()
		}
	}
	leader1.kill()

	runRound("post")

	survivors := make([]*clusterNode, 0, 2)
	for _, n := range nodes {
		if !n.killed {
			survivors = append(survivors, n)
		}
	}
	leader2 := waitLeaderAmong(t, survivors, 15*time.Second)
	for _, n := range survivors {
		if n != leader2 {
			waitConverged(t, leader2.p, n.p, 30*time.Second)
		}
	}

	// The guarantee: every acknowledged write exists on every survivor.
	ackedMu.Lock()
	ids := make([]string, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	ackedMu.Unlock()
	if len(ids) == 0 {
		t.Fatal("no write was ever acknowledged; the harness is broken")
	}
	for _, n := range survivors {
		for _, id := range ids {
			if _, err := n.p.GetUser(id); err != nil {
				t.Fatalf("acknowledged write %s missing on %s after failover: %v", id, n.url, err)
			}
		}
	}
	// Commit indices never regress across the leader change.
	for _, n := range survivors {
		if got := n.p.CommitIndex(); got < preCommit[n.url] {
			t.Fatalf("commit index on %s regressed %d -> %d across failover", n.url, preCommit[n.url], got)
		}
	}
}

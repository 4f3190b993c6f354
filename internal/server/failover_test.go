package server

// Elected-cluster failover tests: leader-kill promotion convergence and
// deposed-leader fencing. Both run in-process (httptest servers over
// real platforms) so they are -race-clean and deterministic enough for
// make race-nightly; what only separate processes can show (SIGKILL, a
// dead leader's dir restarted standalone, per-process metrics) is
// TestSmokeCluster in cmd/hived.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/election"
)

// clusterNode is one elected member: a platform plus its HTTP surface.
type clusterNode struct {
	url    string
	ts     *httptest.Server
	p      *hive.Platform
	killed bool
}

// kill simulates a crash: connections die first (in-flight long-polls
// cancel), then the platform closes. A FileLease-backed node leaves its
// lease to expire, exactly like a real crash.
func (n *clusterNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.p.Close()
}

// startClusterNode opens an elected platform on its own data dir and
// serves it on a pre-bound listener (the URL must be known before Open:
// it is the node's advertised identity).
func startClusterNode(t *testing.T, l net.Listener, self string, peers []string, el election.Elector) *clusterNode {
	t.Helper()
	p, err := hive.Open(hive.Options{
		Dir: t.TempDir(),
		Cluster: &hive.ClusterConfig{
			SelfURL:  self,
			Peers:    peers,
			Election: el,
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

// listenLocal binds a loopback listener and returns it with its URL.
func listenLocal(t *testing.T) (net.Listener, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l, "http://" + l.Addr().String()
}

// waitRole blocks until the platform reports the role.
func waitRole(t *testing.T, p *hive.Platform, role string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.State().Role == role {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node did not become %s (role %s, epoch %d)", role, p.State().Role, p.Epoch())
}

// waitLeaderAmong blocks until exactly one live node leads and returns it.
func waitLeaderAmong(t *testing.T, nodes []*clusterNode, timeout time.Duration) *clusterNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var leader *clusterNode
		for _, n := range nodes {
			if !n.killed && n.p.State().Role == "leader" {
				leader = n
			}
		}
		if leader != nil {
			return leader
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no node claimed leadership")
	return nil
}

// TestClusterFailoverConvergence is the leader-kill promotion test: a
// three-node FileLease cluster takes writes through the cluster-aware
// SDK, the leader is killed mid-history, a follower promotes at a
// higher epoch, and the SDK's subsequent writes land on the new leader
// without re-targeting by the caller. No acknowledged write is lost and
// the survivors converge to identical state.
func TestClusterFailoverConvergence(t *testing.T) {
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
		nodes[i] = startClusterNode(t, ls[i], urls[i], peersOf(i), lease)
	}
	dumpStatesOnFailure(t, nodes)

	leader1 := waitLeaderAmong(t, nodes, 10*time.Second)
	epoch1 := leader1.p.Epoch()
	if epoch1 == 0 {
		t.Fatalf("elected leader at epoch 0")
	}

	// The SDK targets a follower on purpose: the first write must be
	// redirected by the not_leader hint, not by luck of construction.
	var followerURL string
	for _, n := range nodes {
		if n != leader1 {
			followerURL = n.url
			break
		}
	}
	ctx := context.Background()
	c := client.New(followerURL, client.WithCluster(urls[:]...))

	writeUser := func(id string) error {
		return c.CreateUser(ctx, api.User{ID: id, Name: "User " + id, Interests: []string{"failover"}})
	}
	for i := 0; i < 20; i++ {
		if err := writeUser(fmt.Sprintf("pre%02d", i)); err != nil {
			t.Fatalf("pre-failover write %d: %v", i, err)
		}
	}
	if c.Redirects() == 0 {
		t.Fatal("SDK was never redirected despite targeting a follower")
	}
	for _, n := range nodes {
		if n != leader1 {
			waitConverged(t, leader1.p, n.p, 20*time.Second)
		}
	}

	// Kill the leader. Its lease lapses; a survivor must claim it at a
	// strictly higher epoch.
	leader1.kill()

	// Writes continue through the same client handle. Individual calls
	// may exhaust their retry budget inside the election gap, so the
	// load loop retries until the cluster recovers — what a queue-backed
	// writer would do.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("post%02d", i)
		for {
			err := writeUser(id)
			if err == nil {
				break
			}
			// Inside the gap only two failures are legitimate: a typed
			// not_leader (election unresolved) or a transport error (the
			// dead node). Any other typed API error is a real bug.
			var ae *api.Error
			if errors.As(err, &ae) && ae.Code != api.CodeNotLeader {
				t.Fatalf("post-failover write %s: %v", id, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("post-failover write %s never accepted: %v", id, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	survivors := make([]*clusterNode, 0, 2)
	for _, n := range nodes {
		if !n.killed {
			survivors = append(survivors, n)
		}
	}
	leader2 := waitLeaderAmong(t, survivors, 10*time.Second)
	if epoch2 := leader2.p.Epoch(); epoch2 <= epoch1 {
		t.Fatalf("promotion did not advance the epoch: %d -> %d", epoch1, epoch2)
	}
	if leader2.p.State().Promotions == 0 {
		t.Fatal("new leader reports zero promotions")
	}

	// Every write — pre- and post-failover — is on the new leader and on
	// the surviving follower once converged.
	for _, n := range survivors {
		if n != leader2 {
			waitConverged(t, leader2.p, n.p, 30*time.Second)
		}
	}
	for _, n := range survivors {
		for i := 0; i < 20; i++ {
			for _, prefix := range []string{"pre", "post"} {
				id := fmt.Sprintf("%s%02d", prefix, i)
				if _, err := n.p.GetUser(id); err != nil {
					t.Fatalf("node %s missing %s after failover: %v", n.url, id, err)
				}
			}
		}
	}
}

// TestDeposedLeaderFencing builds the split-brain directly with Manual
// electors: node A keeps believing it leads at epoch 1 while the rest
// of the cluster moved to B at epoch 2. A's post-deposition writes are
// journaled under the stale epoch and must be *rejected* by an
// epoch-2 follower — not silently applied, and never adopted via
// resync.
func TestDeposedLeaderFencing(t *testing.T) {
	elA, elB, elF := election.NewManual(), election.NewManual(), election.NewManual()

	lA, urlA := listenLocal(t)
	lB, urlB := listenLocal(t)
	lF, urlF := listenLocal(t)

	elA.Set(election.State{Role: election.Leader, Epoch: 1, Leader: urlA})
	a := startClusterNode(t, lA, urlA, []string{urlB, urlF}, elA)
	waitRole(t, a.p, "leader", 5*time.Second)

	for i := 0; i < 5; i++ {
		if err := a.p.RegisterUser(hive.User{ID: fmt.Sprintf("base%d", i), Name: "Base", Interests: []string{"fencing"}}); err != nil {
			t.Fatal(err)
		}
	}

	elB.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	b := startClusterNode(t, lB, urlB, []string{urlA, urlF}, elB)
	elF.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	f := startClusterNode(t, lF, urlF, []string{urlA, urlB}, elF)
	waitConverged(t, a.p, b.p, 20*time.Second)
	waitConverged(t, a.p, f.p, 20*time.Second)

	// The election moves on without telling A: B leads at epoch 2, F
	// follows B. A is now a deposed leader that still accepts writes.
	elB.Set(election.State{Role: election.Leader, Epoch: 2, Leader: urlB})
	waitRole(t, b.p, "leader", 5*time.Second)
	elF.Set(election.State{Role: election.Follower, Epoch: 2, Leader: urlB})

	for i := 0; i < 3; i++ {
		if err := b.p.RegisterUser(hive.User{ID: fmt.Sprintf("new%d", i), Name: "New", Interests: []string{"epoch2"}}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, b.p, f.p, 20*time.Second)

	// A journals zombie writes under its stale epoch 1.
	for i := 0; i < 2; i++ {
		if err := a.p.RegisterUser(hive.User{ID: fmt.Sprintf("zombie%d", i), Name: "Zombie"}); err != nil {
			t.Fatalf("deposed leader write %d: %v (A must still think it leads)", i, err)
		}
	}
	if a.p.Epoch() != 1 || a.p.State().Role != "leader" {
		t.Fatalf("test setup: A = role %s epoch %d, want leader at 1", a.p.State().Role, a.p.Epoch())
	}

	// Over the wire, a poll asserting a term beyond the node's own is
	// refused with stale_epoch: A's feed at the cluster's term 2, and the
	// real leader B's at a term no one has reached.
	for _, poll := range []struct {
		url   string
		epoch uint64
	}{{urlA, 2}, {urlB, 3}} {
		_, err := client.New(poll.url).ReplicationEvents(context.Background(), 0, 16, 0, poll.epoch, nil)
		if !api.IsCode(err, api.CodeStaleEpoch) {
			t.Fatalf("events poll of %s at epoch %d = %v, want %s", poll.url, poll.epoch, err, api.CodeStaleEpoch)
		}
	}

	// Point F at the deposed leader. Everything A serves is behind F's
	// adopted epoch: the bootstrap snapshot is refused, nothing applies,
	// and F must NOT resync onto A's world. The applied sequence resets
	// with the new follower handle, so the no-regression check is on the
	// store's own sequence.
	seqBefore := f.p.Store().ChangeSeq()
	elF.Set(election.State{Role: election.Follower, Epoch: 2, Leader: urlA})

	deadline := time.Now().Add(10 * time.Second)
	for st := f.p.State(); st.Fenced == 0; st = f.p.State() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never fenced the deposed leader: applied %d, lastErr %q",
				st.AppliedSeq, st.LastReplicationError)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.p.State().LastReplicationError == "" {
		t.Fatal("fenced follower reports no replication error")
	}
	// Give the tail loop room to do damage if it were going to, then
	// verify none was done: no zombie state, no regression below the
	// epoch-2 history already applied.
	time.Sleep(200 * time.Millisecond)
	if got := f.p.Store().ChangeSeq(); got != seqBefore {
		t.Fatalf("follower store moved from seq %d to %d against a deposed leader", seqBefore, got)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.p.GetUser(fmt.Sprintf("zombie%d", i)); err == nil {
			t.Fatalf("zombie%d from the deposed leader leaked into the follower", i)
		}
	}
	if _, err := f.p.GetUser("new0"); err != nil {
		t.Fatalf("epoch-2 state lost while fenced: %v", err)
	}

	// Re-point F at the real leader: it converges, and the zombies exist
	// nowhere in the epoch-2 world.
	elF.Set(election.State{Role: election.Follower, Epoch: 2, Leader: urlB})
	waitConverged(t, b.p, f.p, 20*time.Second)
	for _, p := range []*hive.Platform{b.p, f.p} {
		for i := 0; i < 5; i++ {
			if _, err := p.GetUser(fmt.Sprintf("base%d", i)); err != nil {
				t.Fatalf("pre-deposition base%d missing: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := p.GetUser(fmt.Sprintf("new%d", i)); err != nil {
				t.Fatalf("epoch-2 new%d missing: %v", i, err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := p.GetUser(fmt.Sprintf("zombie%d", i)); err == nil {
				t.Fatalf("zombie%d survived in the epoch-2 world", i)
			}
		}
	}
}

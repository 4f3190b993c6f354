package main

// The TestSmoke* scenarios check what only a real hived process can
// show: its own boot path, SIGKILL and restart on a data dir, the shard
// manifest refusing a changed count, a crashed leader's dir restarted
// standalone, a clean stop on SIGTERM, and per-process /metrics. The
// rest of the API contract is checked in-process (client and
// internal/server tests).
//
// Each hived is this test binary re-executed with childEnv set, so
// TestMain runs main() instead of the tests: no separate build. Every
// node listens on a free loopback port, so the scenarios run in
// parallel. Run them alone with `go test -v -run Smoke ./cmd/hived`.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hive/api"
	"hive/client"
	"hive/internal/election"
)

// childEnv marks a re-executed test binary that must run hived.
const childEnv = "HIVED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseClusterFlag(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want clusterSpec
		err  string // substring of the error; empty = must parse
	}{
		{in: "self=http://a:1,peers=http://b:2;http://c:3,lease=/l,ttl=500ms",
			want: clusterSpec{self: "http://a:1", peers: []string{"http://b:2", "http://c:3"}, leaseDir: "/l", ttl: 500 * time.Millisecond}},
		{in: " self=http://a:1 , peers= http://b:2 ;; ;http://c:3; ,lease=/l,",
			want: clusterSpec{self: "http://a:1", peers: []string{"http://b:2", "http://c:3"}, leaseDir: "/l", ttl: election.DefaultLeaseTTL}},
		{in: "self=http://a:1,lease=/l",
			want: clusterSpec{self: "http://a:1", leaseDir: "/l", ttl: election.DefaultLeaseTTL}},
		{in: "self=http://a:1,lease", err: `"lease" is not key=value`},
		{in: "self=http://a:1,lease=/l,role=leader", err: `unknown key "role"`},
		{in: "self=http://a:1,lease=/l,ttl=soon", err: `bad ttl "soon"`},
		{in: "peers=http://b:2,lease=/l", err: "self=URL is required"},
		{in: "", err: "self=URL is required"},
		{in: "self=http://a:1,peers=http://b:2", err: "lease=DIR is required"},
	} {
		got, err := parseClusterFlag(tc.in)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("parseClusterFlag(%q) err = %v, want one containing %q", tc.in, err, tc.err)
			}
		case err != nil:
			t.Errorf("parseClusterFlag(%q): %v", tc.in, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("parseClusterFlag(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestSmokeShardedDataDir boots hived the way an operator does (flags,
// -seed through the routed write path, the first build, the compaction
// loop) on four shards over a data dir, writes one paper per shard and
// SIGKILLs it. A restart at another shard count must refuse to boot; a
// restart at the same count recovers every shard from its own journal.
func TestSmokeShardedDataDir(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	const shards = 4
	dir := t.TempDir()
	n := startHived(t, freeAddr(t), "-shards", "4", "-data", dir, "-seed", "24", "-compact-interval", "1s")
	c := client.New(n.url)
	h := n.healthy(t, c)
	if h.ShardCount != shards || len(h.Shards) != shards {
		t.Fatalf("healthz shard map: count %d, %d rows", h.ShardCount, len(h.Shards))
	}
	for _, s := range h.Shards {
		if s.JournalTail == 0 || s.Generation == 0 {
			t.Fatalf("shard %d after -seed: %+v, want journaled writes and a built snapshot", s.ID, s)
		}
	}
	if out := n.out.String(); !strings.Contains(out, "compaction loop every 1s") {
		t.Fatal("-compact-interval 1s started no compaction loop")
	}

	// One author per shard; the SDK routes each write by the shard map
	// healthz taught it.
	authors := make([]string, shards)
	for i, found := 0, 0; found < shards; i++ {
		if id := fmt.Sprintf("author-%d", i); authors[api.ShardOf(id, shards)] == "" {
			authors[api.ShardOf(id, shards)] = id
			found++
		}
	}
	for i, id := range authors {
		if err := c.CreateUser(ctx, api.User{ID: id, Name: "Sharder"}); err != nil {
			t.Fatal(err)
		}
		if err := c.CreatePaper(ctx, api.Paper{ID: fmt.Sprintf("shard-p%d", i),
			Title: fmt.Sprintf("Quasiconformal sharding volume %d", i), Authors: []string{id}}); err != nil {
			t.Fatal(err)
		}
	}
	users := allUsers(t, c)
	n.kill()

	refused := startHived(t, freeAddr(t), "-shards", "3", "-data", dir)
	if err := refused.wait(t, 15*time.Second); err == nil ||
		!strings.Contains(refused.out.String(), "the shard count is fixed") {
		t.Fatalf("-shards 3 over a 4-shard dir exited with %v, want a non-zero exit naming the fixed shard count", err)
	}

	re := startHived(t, freeAddr(t), "-shards", "4", "-data", dir)
	c2 := client.New(re.url)
	re.healthy(t, c2)
	if got := allUsers(t, c2); len(got) != len(users) {
		t.Fatalf("restart recovered %d users, want %d", len(got), len(users))
	}
	res, err := c2.Search(ctx, "quasiconformal sharding", "", "", 10)
	if err != nil || len(res.Items) != shards {
		t.Fatalf("restart: search = %+v, %v; want the %d papers, one per shard", res.Items, err, shards)
	}
}

// TestSmokeGracefulStop sends SIGTERM while writers run: hived must exit
// 0 within 5 s, and every write it acknowledged must be there after a
// restart on the same data dir.
func TestSmokeGracefulStop(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	dir := t.TempDir()
	n := startHived(t, freeAddr(t), "-data", dir, "-compact-interval", "1s")
	c := client.New(n.url)
	n.healthy(t, c)

	var mu sync.Mutex
	var acked []string
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("w%d-%04d", w, i)
				if c.CreateUser(ctx, api.User{ID: id, Name: "Writer"}) != nil {
					return // the server is going away
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}()
	}
	waitFor(t, 10*time.Second, "40 acknowledged writes", func() bool { return ackedCount() >= 40 })
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := n.wait(t, 5*time.Second); err != nil {
		t.Fatalf("SIGTERM under write load: hived exited with %v, want status 0", err)
	}
	t.Logf("SIGTERM to exit 0 in %v", time.Since(start).Round(time.Millisecond))
	wg.Wait()

	re := startHived(t, freeAddr(t), "-data", dir)
	c2 := client.New(re.url)
	re.healthy(t, c2)
	for _, id := range acked {
		if _, err := c2.GetUser(ctx, id); err != nil {
			t.Fatalf("acknowledged write %s lost across the stop: %v", id, err)
		}
	}
	t.Logf("%d acknowledged writes all present after restart", len(acked))
}

// TestSmokeCluster runs a three-process elected cluster at a 1 s lease
// TTL with -quorum 1. It checks per-process metrics on a leader and a
// follower, the publish-to-follower-search bound (E15, < 1 s), then
// SIGKILLs the leader under SDK writes (E16: kill to first accepted
// write), restarts the dead leader's dir standalone as a zombie whose
// feed the new term fences, and rejoins it to the cluster.
func TestSmokeCluster(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	leaseDir := t.TempDir()
	const size = 3
	addrs, urls, dirs := make([]string, size), make([]string, size), make([]string, size)
	for i := range addrs {
		addrs[i] = freeAddr(t)
		urls[i] = "http://" + addrs[i]
		dirs[i] = t.TempDir()
	}
	member := func(i int) []string {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		return []string{"-data", dirs[i], "-compact-interval", "1s", "-quorum", "1",
			"-cluster", fmt.Sprintf("self=%s,peers=%s,lease=%s,ttl=1s", urls[i], strings.Join(peers, ";"), leaseDir)}
	}
	nodes := make([]*hived, size)
	for i := range nodes {
		nodes[i] = startHived(t, addrs[i], member(i)...)
	}
	lead, epoch1 := waitLeader(t, urls, -1)
	fol := (lead + 1) % size

	// The cluster-aware SDK aims at a follower: the not_leader hint
	// carries its writes to the leader, and each returns only once a
	// follower has acknowledged it.
	c := client.New(urls[fol], client.WithCluster(urls...))
	for i := 0; i < 10; i++ {
		if err := c.CreateUser(ctx, api.User{ID: fmt.Sprintf("pre%02d", i), Name: "Pre"}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	lh, err := client.New(urls[lead]).Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := lh.Replication; r.QuorumWrites != 1 || r.CommitIndex < r.JournalTail || len(r.FollowerAcks) == 0 {
		t.Fatalf("leader replication after quorum writes = %+v, want k=1, commit index at the tail, follower acks", r)
	}

	// E15: a publish on the leader is searchable on each follower in
	// < 1 s, counted from the publish call (one follower acked it before
	// the call returned).
	start := time.Now()
	if err := c.CreatePaper(ctx, api.Paper{ID: "e15", Title: "Replicated publish propagation",
		Authors: []string{"pre00"}}); err != nil {
		t.Fatal(err)
	}
	for i, u := range urls {
		if i == lead {
			continue
		}
		waitFor(t, 5*time.Second, "the publish on a follower", func() bool {
			res, err := client.New(u).Search(ctx, "replicated publish propagation", "", "", 5)
			return err == nil && len(res.Items) > 0
		})
		d := time.Since(start)
		t.Logf("E15: leader publish searchable on follower %s after %v", u, d.Round(100*time.Microsecond))
		if d > time.Second {
			t.Fatalf("E15: %v, want < 1s", d)
		}
	}

	// The metrics registry is per process: the leader counts its lease
	// claim, a follower times its polls and exposes its lag.
	if v, ok := metric(t, urls[lead], "hive_election_lease_acquisitions_total"); !ok || v < 1 {
		t.Fatalf("leader hive_election_lease_acquisitions_total = %v (present %v), want >= 1", v, ok)
	}
	waitFor(t, 10*time.Second, "a timed follower poll", func() bool {
		v, ok := metric(t, urls[fol], "hive_replication_poll_seconds_count")
		return ok && v >= 1
	})
	if _, ok := metric(t, urls[fol], "hive_replication_lag_events"); !ok {
		t.Fatal("follower exposition lacks hive_replication_lag_events")
	}

	// Both followers catch up before the crash; their commit indices are
	// the watermark the next term must not go below.
	preCommit := make([]uint64, size)
	for i := range nodes {
		if i == lead {
			continue
		}
		waitFor(t, 20*time.Second, "follower convergence", func() bool {
			h, err := client.New(urls[i]).Healthz(ctx)
			preCommit[i] = h.Replication.CommitIndex
			return err == nil && h.Replication.AppliedSeq >= lh.Replication.JournalTail && preCommit[i] > 0
		})
	}

	// E16: SIGKILL the leader; the same SDK handle keeps writing.
	nodes[lead].kill()
	killed := time.Now()
	waitFor(t, 30*time.Second, "a write accepted after the leader kill", func() bool {
		return c.CreateUser(ctx, api.User{ID: "post00", Name: "Post"}) == nil
	})
	t.Logf("E16: leader kill to first accepted write %v", time.Since(killed).Round(time.Millisecond))
	next, epoch2 := waitLeader(t, urls, lead)
	if epoch2 <= epoch1 {
		t.Fatalf("promotion did not advance the epoch: %d -> %d", epoch1, epoch2)
	}
	nh, err := client.New(urls[next]).Healthz(ctx)
	if err != nil || nh.Replication.CommitIndex < preCommit[next] {
		t.Fatalf("new leader commit index %d (err %v), below its pre-kill %d", nh.Replication.CommitIndex, err, preCommit[next])
	}
	for i := 1; i < 5; i++ {
		if err := c.CreateUser(ctx, api.User{ID: fmt.Sprintf("post%02d", i), Name: "Post"}); err != nil {
			t.Fatalf("post-promotion write %d: %v", i, err)
		}
	}

	// The zombie: the dead leader's dir restarted outside the cluster.
	// It recovers its journal and, standalone, takes a write; a poll at
	// the new term is refused with stale_epoch.
	zombie := startHived(t, addrs[lead], "-data", dirs[lead])
	zc := client.New(urls[lead])
	zombie.healthy(t, zc)
	if _, err := zc.GetUser(ctx, "pre09"); err != nil {
		t.Fatalf("SIGKILLed leader's dir lost an acknowledged write: %v", err)
	}
	if err := zc.CreateUser(ctx, api.User{ID: "zombie", Name: "Zombie"}); err != nil {
		t.Fatalf("standalone zombie write: %v", err)
	}
	if _, err := zc.ReplicationEvents(ctx, 0, 16, 0, epoch2, nil); !api.IsCode(err, api.CodeStaleEpoch) {
		t.Fatalf("zombie feed polled at epoch %d = %v, want %s", epoch2, err, api.CodeStaleEpoch)
	}
	zombie.kill()

	// Rejoined under the election, the old leader follows the new term:
	// every acknowledged write everywhere, the zombie's nowhere.
	nodes[lead] = startHived(t, addrs[lead], member(lead)...)
	converged := func(u string) error {
		nc := client.New(u)
		for _, id := range []string{"pre00", "pre09", "post00", "post04"} {
			if _, err := nc.GetUser(ctx, id); err != nil {
				return fmt.Errorf("%s missing %s: %w", u, id, err)
			}
		}
		if _, err := nc.GetUser(ctx, "zombie"); !api.IsCode(err, api.CodeNotFound) {
			return fmt.Errorf("%s: zombie user = %v, want %s", u, err, api.CodeNotFound)
		}
		return nil
	}
	waitFor(t, 30*time.Second, "the rejoined node to converge", func() bool { return converged(urls[lead]) == nil })
	for _, u := range urls {
		if err := converged(u); err != nil {
			t.Fatal(err)
		}
	}
}

// hived is one hived child process.
type hived struct {
	url  string
	cmd  *exec.Cmd
	out  syncBuffer
	done chan struct{} // closed once the process has exited
	err  error         // the exit status, set before done closes
}

// startHived re-executes the test binary as `hived -addr addr -quiet
// args...`. Cleanup kills it and, if the test failed, logs its output.
func startHived(t *testing.T, addr string, args ...string) *hived {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	h := &hived{url: "http://" + addr, done: make(chan struct{})}
	h.cmd = exec.Command(exe, append([]string{"-addr", addr, "-quiet"}, args...)...)
	h.cmd.Env = append(os.Environ(), childEnv+"=1")
	h.cmd.Stdout, h.cmd.Stderr = &h.out, &h.out
	if err := h.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		h.err = h.cmd.Wait()
		close(h.done)
	}()
	t.Cleanup(func() {
		h.kill()
		if t.Failed() {
			t.Logf("hived %s (%v):\n%s", strings.Join(args, " "), h.err, h.out.String())
		}
	})
	return h
}

// kill SIGKILLs the process and waits for it to exit.
func (h *hived) kill() {
	_ = h.cmd.Process.Kill()
	<-h.done
}

// wait returns the process's exit status, failing the test if it is
// still running after d.
func (h *hived) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case <-h.done:
		return h.err
	case <-time.After(d):
		t.Fatalf("hived still running after %v", d)
		return nil
	}
}

// healthy polls healthz through c until the node serves a snapshot.
func (h *hived) healthy(t *testing.T, c *client.Client) api.Health {
	t.Helper()
	var health api.Health
	waitFor(t, 30*time.Second, h.url+" to serve", func() bool {
		select {
		case <-h.done:
			t.Fatalf("hived exited before serving: %v", h.err)
		default:
		}
		var err error
		health, err = c.Healthz(context.Background())
		return err == nil && health.Status == "ok" && health.Snapshot
	})
	return health
}

// waitLeader polls every node but skip until one reports itself leader
// at a non-zero epoch, and returns its index and epoch.
func waitLeader(t *testing.T, urls []string, skip int) (lead int, epoch uint64) {
	t.Helper()
	waitFor(t, 30*time.Second, "an elected leader", func() bool {
		for i, u := range urls {
			if i == skip {
				continue
			}
			h, err := client.New(u).Healthz(context.Background())
			if err == nil && h.Replication.Role == api.RoleLeader && h.Replication.Epoch > 0 {
				lead, epoch = i, h.Replication.Epoch
				return true
			}
		}
		return false
	})
	return lead, epoch
}

// waitFor polls cond until it holds, failing the test after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// allUsers walks the user listing to its end.
func allUsers(t *testing.T, c *client.Client) []string {
	t.Helper()
	ctx := context.Background()
	ids, err := client.Collect(ctx, func(cur string) (api.Page[string], error) { return c.Users(ctx, cur, 0) })
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// metric reads one series from a node's GET /metrics exposition.
func metric(t *testing.T, url, series string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// syncBuffer collects a child's output while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// Command apismoke is the end-to-end contract check behind
// `make api-smoke`: it starts a real hived process, then drives the
// entire /api/v1 surface through the client SDK — typed mutations,
// batch ingest, every knowledge read, cursor pagination, conditional
// GET revalidation, typed errors and the absence of any unversioned
// route — and exits non-zero on the first contract violation.
//
// With -repl (the `make repl-smoke` mode) it instead boots a two-node
// elected cluster (-cluster, shared file lease; the leader node starts
// first so the election is deterministic), then checks the replication
// contract end to end: the follower bootstraps from the leader's
// snapshot, a publish on the leader becomes searchable on the follower
// in under a second, follower writes answer with the not_leader
// envelope naming the leader, and follower healthz reports the
// follower role with zero lag once converged.
//
// With -failover (the `make failover-smoke` mode) it boots a
// *three-node elected cluster* (-cluster, shared file lease), puts the
// cluster-aware SDK under write load, SIGKILLs the leader mid-load and
// checks the failover contract: a follower promotes at a higher epoch,
// the SDK's next write lands without manual re-targeting, the
// resurrected old leader's stale-epoch state is provably rejected
// (stale_epoch on its feed, zombie writes absent everywhere), and the
// old leader rejoins as a follower converging onto the new term.
//
// With -quorum (the `make quorum-smoke` mode) it boots a three-node
// elected cluster with -quorum 1 and checks the synchronous durability
// contract: acknowledged writes advance the cluster commit index,
// killing every follower degrades the next write to a typed
// quorum_unavailable 503 inside the ack timeout (never a hang),
// restarting a follower restores acks without touching the leader, and
// across a leader kill the promoted survivor keeps every acknowledged
// write with a commit index that never regresses.
//
// With -sharded (the `make shard-smoke` mode) it boots one hived
// partitioned into four shards over a durable data dir and checks the
// sharding contract: the shard map on healthz and cluster, owner-routed
// writes readable through cross-shard scatter-gather search, feed
// pagination over per-shard vector cursors, the wrong_shard envelope on
// a mis-declared X-Hive-Shard, the manifest refusing a changed shard
// count, and a same-count restart recovering every shard's journal.
//
// With -metrics (the `make metrics-smoke` mode) it checks the
// observability contract: a four-shard node's GET /metrics exposition
// advances its request counters, scatter-gather fan-out histogram and
// per-shard state gauges as the SDK drives a routed write, a
// cross-shard search and a mis-declared-shard 409, with the SDK-minted
// X-Hive-Trace-Id landing in GET /api/v1/debug/traces carrying its
// per-shard fan-out stages; then a two-node elected cluster proves one
// trace ID survives a not_leader failover, recorded on the rejecting
// follower and on the leader that finally served the write.
//
// Usage:
//
//	apismoke [-hived bin/hived] [-addr 127.0.0.1:18080] [-seed 24] [-repl | -failover | -quorum | -sharded | -metrics]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"hive/api"
	"hive/client"
)

func main() {
	hived := flag.String("hived", "bin/hived", "path to the hived binary")
	addr := flag.String("addr", "127.0.0.1:18080", "address to run hived on")
	seed := flag.Int("seed", 24, "synthetic workload size")
	repl := flag.Bool("repl", false, "run the two-node elected replication scenario instead")
	failover := flag.Bool("failover", false, "run the three-node election failover scenario instead")
	quorum := flag.Bool("quorum", false, "run the three-node quorum-write durability scenario instead")
	sharded := flag.Bool("sharded", false, "run the four-shard partitioned-write scenario instead")
	metricsMode := flag.Bool("metrics", false, "run the observability (metrics + tracing) scenario instead")
	flag.Parse()

	name, fn := "api-smoke", run
	if *repl {
		name, fn = "repl-smoke", runRepl
	}
	if *failover {
		name, fn = "failover-smoke", runFailover
	}
	if *quorum {
		name, fn = "quorum-smoke", runQuorum
	}
	if *sharded {
		name, fn = "shard-smoke", runSharded
	}
	if *metricsMode {
		name, fn = "metrics-smoke", runMetrics
	}
	if err := fn(*hived, *addr, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "%s: FAIL: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s: OK\n", name)
}

// startHived launches one hived with extra flags and returns a cleanup.
func startHived(hived string, args ...string) (func(), error) {
	cmd := exec.Command(hived, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hived: %w", err)
	}
	return func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}, nil
}

func run(hived, addr string, seed int) error {
	stop, err := startHived(hived,
		"-addr", addr,
		"-seed", fmt.Sprint(seed),
		"-compact-interval", "1s",
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	base := "http://" + addr
	c := client.New(base, client.WithETagCache())

	// Wait for the server to come up with a built snapshot.
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}

	steps := []struct {
		name string
		fn   func(context.Context, *client.Client, string) error
	}{
		{"typed mutations", stepMutations},
		{"batch ingest", stepBatch},
		{"entity reads + feeds", stepReads},
		{"knowledge services", stepKnowledge},
		{"cursor pagination", stepPagination},
		{"conditional GETs (ETag/304)", stepConditional},
		{"typed errors", stepErrors},
		{"one route family", stepUnversionedGone},
	}
	for _, s := range steps {
		if err := s.fn(ctx, c, base); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("api-smoke: %-30s ok\n", s.name)
	}
	return nil
}

func waitHealthy(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		h, err := c.Healthz(ctx)
		if err == nil && h.Status == "ok" && h.Snapshot {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("hived did not become healthy in 30s")
}

func stepMutations(ctx context.Context, c *client.Client, _ string) error {
	if err := c.CreateUser(ctx, api.User{ID: "smoke", Name: "Smoke", Interests: []string{"graphs"}}); err != nil {
		return err
	}
	if err := c.CreateConference(ctx, api.Conference{ID: "smokeconf", Name: "SmokeConf"}); err != nil {
		return err
	}
	if err := c.CreateSession(ctx, api.Session{ID: "smoke-s1", ConferenceID: "smokeconf",
		Title: "Smoke session", Hashtag: "#smoke"}); err != nil {
		return err
	}
	if err := c.CreatePaper(ctx, api.Paper{ID: "smoke-p1", Title: "Smoke testing at scale",
		Abstract: "We smoke-test APIs.", Authors: []string{"smoke"},
		ConferenceID: "smokeconf", SessionID: "smoke-s1"}); err != nil {
		return err
	}
	if err := c.CreatePresentation(ctx, api.Presentation{ID: "smoke-pr1", PaperID: "smoke-p1",
		Owner: "smoke", Text: "Smoke slides with enough text for snippets."}); err != nil {
		return err
	}
	if err := c.CheckIn(ctx, "smoke-s1", "smoke"); err != nil {
		return err
	}
	if err := c.Ask(ctx, api.Question{ID: "smoke-q1", Author: "smoke", Target: "smoke-p1", Text: "Works?"}); err != nil {
		return err
	}
	if err := c.Answer(ctx, api.Answer{ID: "smoke-a1", QuestionID: "smoke-q1", Author: "smoke", Text: "Yes."}); err != nil {
		return err
	}
	if err := c.Comment(ctx, api.Comment{ID: "smoke-c1", Author: "smoke", Target: "smoke-p1", Text: "Nice."}); err != nil {
		return err
	}
	if err := c.CreateWorkpad(ctx, api.Workpad{ID: "smoke-w1", Owner: "smoke", Name: "smoke ctx"}); err != nil {
		return err
	}
	if err := c.AddWorkpadItem(ctx, "smoke-w1", api.WorkpadItem{Kind: "paper", Ref: "smoke-p1"}); err != nil {
		return err
	}
	if err := c.ActivateWorkpad(ctx, "smoke", "smoke-w1"); err != nil {
		return err
	}
	return c.Refresh(ctx, true)
}

func stepBatch(ctx context.Context, c *client.Client, _ string) error {
	var ents []api.BatchEntity
	for i := 0; i < 5; i++ {
		ent, err := api.NewBatchEntity(api.KindUser, api.User{
			ID: fmt.Sprintf("smoke-b%d", i), Name: "Batcher", Interests: []string{"graphs"}})
		if err != nil {
			return err
		}
		ents = append(ents, ent)
	}
	conn, err := api.NewBatchEntity(api.KindConnection, api.ConnectRequest{A: "smoke-b0", B: "smoke-b1"})
	if err != nil {
		return err
	}
	ents = append(ents, conn)
	br, err := c.Batch(ctx, ents)
	if err != nil {
		return err
	}
	if br.Applied != len(ents) || br.Failed != 0 {
		return fmt.Errorf("batch response %+v", br)
	}
	return nil
}

func stepReads(ctx context.Context, c *client.Client, _ string) error {
	u, err := c.GetUser(ctx, "smoke")
	if err != nil || u.Name != "Smoke" {
		return fmt.Errorf("GetUser = %+v, %v", u, err)
	}
	att, err := c.Attendees(ctx, "smoke-s1", "", 0)
	if err != nil || len(att.Items) != 1 {
		return fmt.Errorf("attendees = %+v, %v", att, err)
	}
	wp, err := c.ActiveWorkpad(ctx, "smoke")
	if err != nil || wp.ID != "smoke-w1" {
		return fmt.Errorf("workpad = %+v, %v", wp, err)
	}
	evs, err := c.TagEvents(ctx, "#smoke", "", 0)
	if err != nil || len(evs.Items) == 0 {
		return fmt.Errorf("tag events = %+v, %v", evs, err)
	}
	if _, err := c.Feed(ctx, "smoke", "", 10); err != nil {
		return err
	}
	return nil
}

func stepKnowledge(ctx context.Context, c *client.Client, _ string) error {
	if _, err := c.Search(ctx, "smoke testing", "", "", 5); err != nil {
		return err
	}
	if _, err := c.Search(ctx, "smoke testing", "smoke", "", 5); err != nil {
		return err
	}
	if _, err := c.PeerRecommendations(ctx, "smoke", "", 5); err != nil {
		return err
	}
	if _, err := c.ResourceRecommendations(ctx, "smoke", true, "", 5); err != nil {
		return err
	}
	if _, err := c.SuggestSessions(ctx, "smoke", "smokeconf", "", 3); err != nil {
		return err
	}
	snips, err := c.Preview(ctx, "smoke", "pres/smoke-pr1", 2)
	if err != nil || len(snips) == 0 {
		return fmt.Errorf("preview = %v, %v", snips, err)
	}
	if _, err := c.Digest(ctx, "smoke", 4); err != nil {
		return err
	}
	comms, err := c.Communities(ctx, "", 0)
	if err != nil || len(comms.Items) == 0 {
		return fmt.Errorf("communities = %+v, %v", comms, err)
	}
	if _, err := c.History(ctx, "smoke", "checkin", false, "", 0); err != nil {
		return err
	}
	if _, err := c.ResourceRelationship(ctx, "smoke", "smoke-p1"); err != nil {
		return err
	}
	if _, err := c.KnowledgePaths(ctx, "user:smoke", "session:smoke-s1", 2); err != nil {
		return err
	}
	ex, err := c.Relationship(ctx, "smoke-b0", "smoke-b1")
	if err != nil || len(ex.Evidences) == 0 {
		return fmt.Errorf("relationship = %+v, %v", ex, err)
	}
	return nil
}

func stepPagination(ctx context.Context, c *client.Client, _ string) error {
	pg, err := c.Users(ctx, "", 5)
	if err != nil {
		return err
	}
	if len(pg.Items) != 5 || pg.NextCursor == "" {
		return fmt.Errorf("first page = %d items, cursor %q", len(pg.Items), pg.NextCursor)
	}
	all, err := client.Collect(ctx, func(cur string) (api.Page[string], error) {
		return c.Users(ctx, cur, 7)
	})
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, id := range all {
		if seen[id] {
			return fmt.Errorf("duplicate id %q across pages", id)
		}
		seen[id] = true
	}
	if !seen["smoke"] || !seen["smoke-b4"] {
		return fmt.Errorf("page walk missed seeded users (%d total)", len(all))
	}
	return nil
}

func stepConditional(ctx context.Context, c *client.Client, _ string) error {
	// Settle the snapshot, then read the same knowledge URL twice: the
	// second must revalidate from the ETag cache.
	if err := c.Refresh(ctx, true); err != nil {
		return err
	}
	if _, err := c.Search(ctx, "smoke conditional", "", "", 5); err != nil {
		return err
	}
	_, before := c.Stats()
	if _, err := c.Search(ctx, "smoke conditional", "", "", 5); err != nil {
		return err
	}
	if _, after := c.Stats(); after != before+1 {
		return fmt.Errorf("expected one 304 revalidation, cache hits %d -> %d", before, after)
	}
	return nil
}

func stepErrors(ctx context.Context, c *client.Client, _ string) error {
	_, err := c.GetUser(ctx, "ghost-user")
	if !api.IsCode(err, api.CodeNotFound) {
		return fmt.Errorf("missing user err = %v, want code %s", err, api.CodeNotFound)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.HTTPStatus != http.StatusNotFound {
		return fmt.Errorf("err = %v, want HTTP 404", err)
	}
	if err := c.CreateUser(ctx, api.User{}); !api.IsCode(err, api.CodeInvalidArgument) {
		return fmt.Errorf("invalid user err = %v", err)
	}
	return nil
}

// --- Replication scenario (`make repl-smoke`) ----------------------------------

// runRepl boots a two-node elected cluster — the leader node first, so
// the election is deterministic — seeds the leader over the batch API
// and drives the replication contract end to end.
func runRepl(hived, addr string, seed int) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -addr: %w", err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("bad -addr port: %w", err)
	}
	leaderAddr := addr
	followerAddr := net.JoinHostPort(host, fmt.Sprint(p+1))
	leaderBase := "http://" + leaderAddr
	followerBase := "http://" + followerAddr

	dirs := make([]string, 2)
	for i := range dirs {
		if dirs[i], err = os.MkdirTemp("", fmt.Sprintf("hive-repl-n%d-", i)); err != nil {
			return err
		}
		defer os.RemoveAll(dirs[i])
	}
	leaseDir, err := os.MkdirTemp("", "hive-repl-lease-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(leaseDir)
	clusterFlag := func(self, peer string) string {
		return fmt.Sprintf("self=%s,peers=%s,lease=%s,ttl=1s", self, peer, leaseDir)
	}

	stopLeader, err := startHived(hived,
		"-addr", leaderAddr,
		"-data", dirs[0],
		"-cluster", clusterFlag(leaderBase, followerBase),
		"-compact-interval", "1s",
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stopLeader()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	lc := client.New(leaderBase)
	if err := waitRole(ctx, lc, api.RoleLeader, 30*time.Second); err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	// Cluster nodes ignore -seed (state replicates from the elected
	// leader), so the corpus arrives the way production data would:
	// one bulk ingest through the batch API.
	if err := seedOverAPI(ctx, lc, seed); err != nil {
		return fmt.Errorf("seed leader: %w", err)
	}

	// The second node finds the lease taken and joins as a follower,
	// bootstrapping from the leader's snapshot.
	stopFollower, err := startHived(hived,
		"-addr", followerAddr,
		"-data", dirs[1],
		"-cluster", clusterFlag(followerBase, leaderBase),
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stopFollower()
	fc := client.New(followerBase)
	if err := waitRole(ctx, fc, api.RoleFollower, 30*time.Second); err != nil {
		return fmt.Errorf("follower: %w", err)
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"roles reported in healthz", func() error { return stepReplRoles(ctx, lc, fc, leaderBase) }},
		{"bootstrap converged reads", func() error { return stepReplBootstrap(ctx, lc, fc) }},
		{"leader write -> follower read", func() error { return stepReplPropagation(ctx, lc, fc) }},
		{"follower rejects writes", func() error { return stepReplNotLeader(ctx, fc, leaderBase) }},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("repl-smoke: %-30s ok\n", s.name)
	}
	return nil
}

// waitRole polls healthz until the node serves a snapshot and reports
// the wanted replication role, or times out.
func waitRole(ctx context.Context, c *client.Client, role string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		h, err := c.Healthz(ctx)
		if err == nil && h.Status == "ok" && h.Snapshot && h.Replication.Role == role {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("node did not reach role %q in %v", role, timeout)
}

// seedOverAPI loads a small synthetic corpus (seed users, seed/2 papers
// authored by them) through one POST /api/v1/batch ingest.
func seedOverAPI(ctx context.Context, c *client.Client, seed int) error {
	ents := make([]api.BatchEntity, 0, seed+seed/2)
	for i := 0; i < seed; i++ {
		ent, err := api.NewBatchEntity(api.KindUser, api.User{
			ID:        fmt.Sprintf("seed-u%03d", i),
			Name:      fmt.Sprintf("Seed User %d", i),
			Interests: []string{"replication", "graphs"},
		})
		if err != nil {
			return err
		}
		ents = append(ents, ent)
	}
	for i := 0; i < seed/2; i++ {
		ent, err := api.NewBatchEntity(api.KindPaper, api.Paper{
			ID:       fmt.Sprintf("seed-p%03d", i),
			Title:    fmt.Sprintf("Seed paper %d", i),
			Abstract: "Synthetic corpus for the replication smoke.",
			Authors:  []string{fmt.Sprintf("seed-u%03d", i)},
		})
		if err != nil {
			return err
		}
		ents = append(ents, ent)
	}
	_, err := c.Batch(ctx, ents)
	return err
}

func stepReplRoles(ctx context.Context, lc, fc *client.Client, leaderBase string) error {
	lh, err := lc.Healthz(ctx)
	if err != nil {
		return err
	}
	if lh.Replication.Role != api.RoleLeader || lh.Replication.JournalTail == 0 {
		return fmt.Errorf("leader healthz replication = %+v", lh.Replication)
	}
	fh, err := fc.Healthz(ctx)
	if err != nil {
		return err
	}
	if fh.Replication.Role != api.RoleFollower || fh.Replication.LeaderURL != leaderBase {
		return fmt.Errorf("follower healthz replication = %+v", fh.Replication)
	}
	return nil
}

// stepReplBootstrap: the seeded corpus must already be readable on the
// follower, identically to the leader.
func stepReplBootstrap(ctx context.Context, lc, fc *client.Client) error {
	lu, err := client.Collect(ctx, func(cur string) (api.Page[string], error) {
		return lc.Users(ctx, cur, 0)
	})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fu, err := client.Collect(ctx, func(cur string) (api.Page[string], error) {
			return fc.Users(ctx, cur, 0)
		})
		if err != nil {
			return err
		}
		if len(fu) == len(lu) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower has %d users, leader %d", len(fu), len(lu))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// stepReplPropagation: a publish on the leader becomes searchable on
// the follower in under a second.
func stepReplPropagation(ctx context.Context, lc, fc *client.Client) error {
	if err := lc.CreateUser(ctx, api.User{ID: "repl-author", Name: "Repl", Interests: []string{"replication"}}); err != nil {
		return err
	}
	if err := lc.CreatePaper(ctx, api.Paper{
		ID: "repl-p1", Title: "Replicated publish propagation",
		Abstract: "Searchable on the follower within one second.",
		Authors:  []string{"repl-author"},
	}); err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		pg, err := fc.Search(ctx, "replicated publish propagation", "", "", 5)
		if err != nil {
			return err
		}
		if len(pg.Items) > 0 {
			d := time.Since(start)
			fmt.Printf("repl-smoke: propagation latency %v\n", d.Round(time.Millisecond))
			if d > time.Second {
				return fmt.Errorf("propagation took %v, want < 1s", d)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader publish never became searchable on follower")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func stepReplNotLeader(ctx context.Context, fc *client.Client, leaderBase string) error {
	err := fc.CreateUser(ctx, api.User{ID: "rejected", Name: "R"})
	if !api.IsCode(err, api.CodeNotLeader) {
		return fmt.Errorf("follower write err = %v, want code %s", err, api.CodeNotLeader)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.HTTPStatus != http.StatusConflict {
		return fmt.Errorf("follower write err = %v, want HTTP 409", err)
	}
	if got := ae.Details["leader"]; got != leaderBase {
		return fmt.Errorf("details.leader = %v, want %q", got, leaderBase)
	}
	// Batch writes hit the store directly and are guarded separately.
	ent, err := api.NewBatchEntity(api.KindUser, api.User{ID: "rejected2", Name: "R"})
	if err != nil {
		return err
	}
	if _, err := fc.Batch(ctx, []api.BatchEntity{ent}); !api.IsCode(err, api.CodeNotLeader) {
		return fmt.Errorf("follower batch err = %v, want code %s", err, api.CodeNotLeader)
	}
	return nil
}

// --- Failover scenario (`make failover-smoke`) ----------------------------------

// runFailover boots a three-node elected cluster and drives the
// failover contract: promotion at a higher epoch after a SIGKILL,
// SDK writes surviving the transition unassisted, and epoch fencing of
// the resurrected old leader.
func runFailover(hived, addr string, seed int) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -addr: %w", err)
	}
	basePort, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("bad -addr port: %w", err)
	}

	const nodes = 3
	addrs := make([]string, nodes)
	urls := make([]string, nodes)
	dirs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		addrs[i] = net.JoinHostPort(host, fmt.Sprint(basePort+i))
		urls[i] = "http://" + addrs[i]
		if dirs[i], err = os.MkdirTemp("", fmt.Sprintf("hive-failover-n%d-", i)); err != nil {
			return err
		}
		defer os.RemoveAll(dirs[i])
	}
	leaseDir, err := os.MkdirTemp("", "hive-failover-lease-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(leaseDir)

	clusterFlag := func(i int) string {
		peers := ""
		for j := 0; j < nodes; j++ {
			if j == i {
				continue
			}
			if peers != "" {
				peers += ";"
			}
			peers += urls[j]
		}
		return fmt.Sprintf("self=%s,peers=%s,lease=%s,ttl=1s", urls[i], peers, leaseDir)
	}
	startNode := func(i int) (func(), error) {
		return startHived(hived,
			"-addr", addrs[i],
			"-data", dirs[i],
			"-cluster", clusterFlag(i),
			"-compact-interval", "1s",
			"-quiet",
		)
	}

	stops := make([]func(), nodes)
	for i := 0; i < nodes; i++ {
		if stops[i], err = startNode(i); err != nil {
			return err
		}
		defer func(i int) {
			if stops[i] != nil {
				stops[i]()
			}
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	perNode := make([]*client.Client, nodes)
	for i := range perNode {
		perNode[i] = client.New(urls[i])
	}

	// An elected leader must emerge and every node must agree on it.
	leaderIdx, epoch1, err := waitClusterLeader(ctx, perNode, urls, 30*time.Second)
	if err != nil {
		return err
	}
	if epoch1 == 0 {
		return fmt.Errorf("leader elected at epoch 0")
	}
	fmt.Printf("failover-smoke: leader %s at epoch %d\n", urls[leaderIdx], epoch1)

	// The cluster-aware SDK deliberately targets a follower: the first
	// write must arrive at the leader via the not_leader hint alone.
	followerIdx := (leaderIdx + 1) % nodes
	c := client.New(urls[followerIdx], client.WithCluster(urls...))
	for i := 0; i < 10; i++ {
		if err := c.CreateUser(ctx, api.User{
			ID: fmt.Sprintf("chk%02d", i), Name: "Checkpoint", Interests: []string{"failover"}}); err != nil {
			return fmt.Errorf("checkpoint write %d: %w", i, err)
		}
	}
	if c.Redirects() == 0 {
		return fmt.Errorf("SDK was never redirected despite targeting follower %s", urls[followerIdx])
	}
	fmt.Printf("failover-smoke: %-30s ok\n", "SDK auto-follows leader hint")

	// Let the checkpoint replicate before the crash: replication is
	// asynchronous, so only converged writes are guaranteed to survive a
	// leader loss (the durability contract is the journal, and the dead
	// leader's journal leaves with it).
	lh, err := perNode[leaderIdx].Healthz(ctx)
	if err != nil {
		return fmt.Errorf("leader healthz: %w", err)
	}
	tail := lh.Replication.JournalTail
	convergeDeadline := time.Now().Add(30 * time.Second)
	for i := 0; i < nodes; i++ {
		if i == leaderIdx {
			continue
		}
		for {
			fh, err := perNode[i].Healthz(ctx)
			if err == nil && fh.Replication.AppliedSeq >= tail {
				break
			}
			if time.Now().After(convergeDeadline) {
				return fmt.Errorf("follower %s never caught up to checkpoint (tail %d): %+v, %v",
					urls[i], tail, fh.Replication, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// SIGKILL the leader mid-write-load, then keep writing through the
	// same client handle: the next accepted write measures the full
	// detect -> promote -> redirect pipeline.
	killAt := time.Now()
	stops[leaderIdx]()
	stops[leaderIdx] = nil

	accepted := -1
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; accepted < 0; i++ {
		id := fmt.Sprintf("post%02d", i)
		if err := c.CreateUser(ctx, api.User{ID: id, Name: "Post", Interests: []string{"failover"}}); err == nil {
			accepted = i
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no write accepted within 30s of killing the leader")
		}
		time.Sleep(100 * time.Millisecond)
	}
	failoverTime := time.Since(killAt)
	fmt.Printf("failover-smoke: first accepted write %v after leader kill\n", failoverTime.Round(time.Millisecond))

	// A survivor must now lead at a strictly higher epoch.
	survivors := make([]*client.Client, 0, nodes-1)
	survivorURLs := make([]string, 0, nodes-1)
	for i := 0; i < nodes; i++ {
		if i != leaderIdx {
			survivors = append(survivors, perNode[i])
			survivorURLs = append(survivorURLs, urls[i])
		}
	}
	newIdx, epoch2, err := waitClusterLeader(ctx, survivors, survivorURLs, 30*time.Second)
	if err != nil {
		return err
	}
	if epoch2 <= epoch1 {
		return fmt.Errorf("promotion did not advance the epoch: %d -> %d", epoch1, epoch2)
	}
	newLeader := survivors[newIdx]
	fmt.Printf("failover-smoke: promoted %s at epoch %d\n", survivorURLs[newIdx], epoch2)

	// Fill the post-promotion history to a round count.
	for i := accepted + 1; i < 10; i++ {
		if err := c.CreateUser(ctx, api.User{
			ID: fmt.Sprintf("post%02d", i), Name: "Post", Interests: []string{"failover"}}); err != nil {
			return fmt.Errorf("post-promotion write %d: %w", i, err)
		}
	}

	// Endpoint fencing: a poll asserting a term beyond the node's own
	// answers stale_epoch — the signal a deposed leader gives a fenced
	// follower.
	if _, err := newLeader.ReplicationEvents(ctx, 0, 1, 0, epoch2+1, nil); !api.IsCode(err, api.CodeStaleEpoch) {
		return fmt.Errorf("events poll asserting epoch %d = %v, want code %s", epoch2+1, err, api.CodeStaleEpoch)
	}
	fmt.Printf("failover-smoke: %-30s ok\n", "stale_epoch on ahead-of-term poll")

	// Resurrect the old leader *outside* the cluster (plain -data, no
	// election): it recovers its journal — stuck at the old epoch — and
	// being standalone it accepts writes. That is exactly the deposed
	// leader whose batches must never propagate.
	oldIdx := leaderIdx
	stopZombie, err := startHived(hived,
		"-addr", addrs[oldIdx],
		"-data", dirs[oldIdx],
		"-compact-interval", "1s",
		"-quiet",
	)
	if err != nil {
		return err
	}
	zc := perNode[oldIdx]
	if err := waitHealthy(ctx, zc); err != nil {
		stopZombie()
		return fmt.Errorf("resurrected old leader: %w", err)
	}
	if err := zc.CreateUser(ctx, api.User{ID: "zombie", Name: "Zombie"}); err != nil {
		stopZombie()
		return fmt.Errorf("zombie write on deposed leader: %w", err)
	}
	// Polling it at the cluster's term is refused wholesale: stale_epoch,
	// nothing served, nothing to apply.
	if _, err := zc.ReplicationEvents(ctx, 0, 16, 0, epoch2, nil); !api.IsCode(err, api.CodeStaleEpoch) {
		stopZombie()
		return fmt.Errorf("deposed leader poll at epoch %d = %v, want code %s", epoch2, err, api.CodeStaleEpoch)
	}
	stopZombie()
	fmt.Printf("failover-smoke: %-30s ok\n", "deposed leader feed fenced")

	// Rejoin the old node properly: under the elected cluster it comes
	// back as a follower, re-bootstraps onto the epoch-2 world, and the
	// zombie write is gone — on it and everywhere else.
	if stops[oldIdx], err = startNode(oldIdx); err != nil {
		return err
	}
	wantUsers := make([]string, 0, 20)
	for i := 0; i < 10; i++ {
		wantUsers = append(wantUsers, fmt.Sprintf("chk%02d", i), fmt.Sprintf("post%02d", i))
	}
	verify := func(nc *client.Client, who string) error {
		for _, id := range wantUsers {
			if _, err := nc.GetUser(ctx, id); err != nil {
				return fmt.Errorf("%s missing %s: %w", who, id, err)
			}
		}
		if _, err := nc.GetUser(ctx, "zombie"); !api.IsCode(err, api.CodeNotFound) {
			return fmt.Errorf("%s: zombie user = %v, want %s", who, err, api.CodeNotFound)
		}
		return nil
	}
	rejoinDeadline := time.Now().Add(60 * time.Second)
	for {
		err := verify(zc, "rejoined node")
		if err == nil {
			break
		}
		if time.Now().After(rejoinDeadline) {
			return fmt.Errorf("rejoined node never converged: %w", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	for i, nc := range survivors {
		if err := verify(nc, survivorURLs[i]); err != nil {
			return err
		}
	}
	fmt.Printf("failover-smoke: %-30s ok\n", "rejoin converges, zombie absent")
	return nil
}

// runQuorum exercises the synchronous durability mode end to end on
// real hived processes: a three-node cluster with -quorum 1 accepts
// writes only once a follower confirms them, degrades to a typed
// quorum_unavailable 503 inside the ack timeout when every follower is
// gone, recovers as soon as one returns, and carries the cluster
// commit index forward — never backward — across a leader kill.
func runQuorum(hived, addr string, seed int) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -addr: %w", err)
	}
	basePort, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("bad -addr port: %w", err)
	}

	const nodes = 3
	const ackTimeout = 2 * time.Second
	addrs := make([]string, nodes)
	urls := make([]string, nodes)
	dirs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		addrs[i] = net.JoinHostPort(host, fmt.Sprint(basePort+i))
		urls[i] = "http://" + addrs[i]
		if dirs[i], err = os.MkdirTemp("", fmt.Sprintf("hive-quorum-n%d-", i)); err != nil {
			return err
		}
		defer os.RemoveAll(dirs[i])
	}
	leaseDir, err := os.MkdirTemp("", "hive-quorum-lease-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(leaseDir)

	clusterFlag := func(i int) string {
		peers := ""
		for j := 0; j < nodes; j++ {
			if j == i {
				continue
			}
			if peers != "" {
				peers += ";"
			}
			peers += urls[j]
		}
		return fmt.Sprintf("self=%s,peers=%s,lease=%s,ttl=1s", urls[i], peers, leaseDir)
	}
	startNode := func(i int) (func(), error) {
		return startHived(hived,
			"-addr", addrs[i],
			"-data", dirs[i],
			"-cluster", clusterFlag(i),
			"-quorum", "1",
			"-ack-timeout", ackTimeout.String(),
			"-compact-interval", "1s",
			"-quiet",
		)
	}

	stops := make([]func(), nodes)
	for i := 0; i < nodes; i++ {
		if stops[i], err = startNode(i); err != nil {
			return err
		}
		defer func(i int) {
			if stops[i] != nil {
				stops[i]()
			}
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	perNode := make([]*client.Client, nodes)
	for i := range perNode {
		perNode[i] = client.New(urls[i])
	}

	leaderIdx, epoch1, err := waitClusterLeader(ctx, perNode, urls, 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("quorum-smoke: leader %s at epoch %d, k=1\n", urls[leaderIdx], epoch1)

	// Quorum-acknowledged writes succeed while a follower is polling, and
	// the cluster commit index covers everything accepted.
	c := client.New(urls[leaderIdx], client.WithCluster(urls...))
	for i := 0; i < 8; i++ {
		if err := c.CreateUser(ctx, api.User{
			ID: fmt.Sprintf("dur%02d", i), Name: "Durable", Interests: []string{"quorum"}}); err != nil {
			return fmt.Errorf("quorum write %d: %w", i, err)
		}
	}
	lh, err := perNode[leaderIdx].Healthz(ctx)
	if err != nil {
		return fmt.Errorf("leader healthz: %w", err)
	}
	if lh.Replication.QuorumWrites != 1 {
		return fmt.Errorf("leader quorum_writes = %d, want 1", lh.Replication.QuorumWrites)
	}
	if lh.Replication.CommitIndex < lh.Replication.JournalTail {
		return fmt.Errorf("commit index %d below journal tail %d after acknowledged writes",
			lh.Replication.CommitIndex, lh.Replication.JournalTail)
	}
	if len(lh.Replication.FollowerAcks) == 0 {
		return fmt.Errorf("leader healthz reports no follower acks")
	}
	fmt.Printf("quorum-smoke: %-34s ok\n", "k=1 writes acknowledged, commit index covers tail")

	// Kill every follower: the next write cannot reach a quorum, so the
	// leader must degrade with the typed quorum_unavailable answer inside
	// the ack timeout instead of hanging or succeeding.
	for i := 0; i < nodes; i++ {
		if i != leaderIdx {
			stops[i]()
			stops[i] = nil
		}
	}
	lc := perNode[leaderIdx]
	degradeDeadline := time.Now().Add(30 * time.Second)
	var degradeErr error
	for {
		start := time.Now()
		degradeErr = lc.CreateUser(ctx, api.User{ID: "unproven", Name: "Unproven"})
		elapsed := time.Since(start)
		if degradeErr != nil {
			if !api.IsCode(degradeErr, api.CodeQuorumUnavailable) {
				return fmt.Errorf("degraded write error = %v, want code %s", degradeErr, api.CodeQuorumUnavailable)
			}
			if elapsed > ackTimeout+3*time.Second {
				return fmt.Errorf("degraded write took %v, want bounded near the %v ack timeout", elapsed, ackTimeout)
			}
			break
		}
		// A write may still slip through while a follower's final poll is
		// in flight; retry until the ack sources are really gone.
		if time.Now().After(degradeDeadline) {
			return fmt.Errorf("writes kept succeeding with every follower dead")
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("quorum-smoke: %-34s ok\n", "typed quorum_unavailable, bounded wait")

	// Restart the followers: the first confirming poll restores the ack
	// flow and writes succeed again without restarting the leader.
	for i := 0; i < nodes; i++ {
		if i != leaderIdx {
			if stops[i], err = startNode(i); err != nil {
				return err
			}
		}
	}
	recoverDeadline := time.Now().Add(30 * time.Second)
	for {
		if err = lc.CreateUser(ctx, api.User{ID: "recovered", Name: "Recovered"}); err == nil {
			break
		}
		if time.Now().After(recoverDeadline) {
			return fmt.Errorf("writes never recovered after follower restart: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Printf("quorum-smoke: %-34s ok\n", "follower restart restores acks")

	// Snapshot the followers' commit indices, then kill the leader: the
	// promoted survivor must carry the watermark forward, never backward —
	// the commit index is a durability promise already given out.
	preKill := make(map[int]uint64)
	snapDeadline := time.Now().Add(30 * time.Second)
	for i := 0; i < nodes; i++ {
		if i == leaderIdx {
			continue
		}
		for {
			fh, err := perNode[i].Healthz(ctx)
			if err == nil && fh.Replication.CommitIndex > 0 {
				preKill[i] = fh.Replication.CommitIndex
				break
			}
			if time.Now().After(snapDeadline) {
				return fmt.Errorf("follower %s never published a commit index: %+v, %v", urls[i], fh, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	stops[leaderIdx]()
	stops[leaderIdx] = nil

	survivors := make([]*client.Client, 0, nodes-1)
	survivorURLs := make([]string, 0, nodes-1)
	survivorIdx := make([]int, 0, nodes-1)
	for i := 0; i < nodes; i++ {
		if i != leaderIdx {
			survivors = append(survivors, perNode[i])
			survivorURLs = append(survivorURLs, urls[i])
			survivorIdx = append(survivorIdx, i)
		}
	}
	newIdx, epoch2, err := waitClusterLeader(ctx, survivors, survivorURLs, 30*time.Second)
	if err != nil {
		return err
	}
	if epoch2 <= epoch1 {
		return fmt.Errorf("promotion did not advance the epoch: %d -> %d", epoch1, epoch2)
	}
	nh, err := survivors[newIdx].Healthz(ctx)
	if err != nil {
		return fmt.Errorf("new leader healthz: %w", err)
	}
	if want := preKill[survivorIdx[newIdx]]; nh.Replication.CommitIndex < want {
		return fmt.Errorf("commit index regressed across leader kill: %d -> %d",
			want, nh.Replication.CommitIndex)
	}
	// Every acknowledged write must be on the promoted leader: that is
	// what the quorum bought.
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("dur%02d", i)
		if _, err := survivors[newIdx].GetUser(ctx, id); err != nil {
			return fmt.Errorf("acknowledged write %s lost after leader kill: %w", id, err)
		}
	}
	if _, err := survivors[newIdx].GetUser(ctx, "recovered"); err != nil {
		return fmt.Errorf("acknowledged write recovered lost after leader kill: %w", err)
	}
	fmt.Printf("quorum-smoke: promoted %s at epoch %d, commit index %d (was %d)\n",
		survivorURLs[newIdx], epoch2, nh.Replication.CommitIndex, preKill[survivorIdx[newIdx]])
	fmt.Printf("quorum-smoke: %-34s ok\n", "commit index monotone across leader kill")
	return nil
}

// waitClusterLeader polls the nodes' cluster endpoints until one
// reports itself leader, returning its index and epoch.
func waitClusterLeader(ctx context.Context, cs []*client.Client, urls []string, timeout time.Duration) (int, uint64, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		for i, c := range cs {
			st, err := c.ClusterStatus(ctx)
			if err != nil {
				continue
			}
			if st.Role == api.RoleLeader && st.Epoch > 0 {
				return i, st.Epoch, nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return 0, 0, fmt.Errorf("no leader elected within %v (urls %v)", timeout, urls)
}

// stepUnversionedGone: /api/v1 is the only route family; the
// unversioned aliases it replaced answer 404.
func stepUnversionedGone(ctx context.Context, _ *client.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("unversioned /api/healthz = %d, want 404", resp.StatusCode)
	}
	return nil
}

// --- Sharded scenario (`make shard-smoke`) --------------------------------------

// runSharded boots one hived partitioned into four shards over a
// durable data dir and drives the sharding contract end to end: the
// shard map on healthz and cluster, owner-routed writes that stay
// readable through cross-shard scatter-gather search, feed pagination
// across per-shard cursors, the wrong_shard error envelope on a
// mis-declared X-Hive-Shard, and the manifest pin — reopening the data
// dir at a different shard count must refuse to boot, while the same
// count recovers every shard from its own journal.
func runSharded(hived, addr string, seed int) error {
	dir, err := os.MkdirTemp("", "hive-shard-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const shards = 4
	stop, err := startHived(hived,
		"-addr", addr,
		"-shards", fmt.Sprint(shards),
		"-data", dir,
		"-seed", fmt.Sprint(seed),
		"-compact-interval", "1s",
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	base := "http://" + addr
	c := client.New(base)
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}

	authors := shardAuthors(shards)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"shard map on healthz + cluster", func() error { return shardStepMap(ctx, c, shards) }},
		{"routed writes, scatter-gather search", func() error { return shardStepWrites(ctx, c, authors) }},
		{"cross-shard feed pagination", func() error { return shardStepFeed(ctx, c, authors) }},
		{"wrong_shard contract", func() error { return shardStepWrongShard(ctx, c, base, shards) }},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("shard-smoke: %-36s ok\n", s.name)
	}

	// The shard count is fixed for the life of a data dir: reopening at
	// a different count must refuse to boot.
	stop()
	refuseCtx, refuseCancel := context.WithTimeout(ctx, 15*time.Second)
	defer refuseCancel()
	refuse := exec.CommandContext(refuseCtx, hived,
		"-addr", addr, "-shards", "3", "-data", dir, "-quiet")
	refuse.Stdout = os.Stdout
	refuse.Stderr = os.Stderr
	err = refuse.Run()
	if refuseCtx.Err() != nil {
		return fmt.Errorf("hived did not refuse a changed shard count within 15s")
	}
	if err == nil {
		return fmt.Errorf("hived accepted -shards 3 over a 4-shard data dir")
	}
	fmt.Printf("shard-smoke: %-36s ok\n", "manifest pins the shard count")

	// Same count reboots cleanly, every shard recovering from its own
	// journal: the routed writes from before the restart must still be
	// there.
	stop2, err := startHived(hived,
		"-addr", addr, "-shards", fmt.Sprint(shards), "-data", dir, "-quiet")
	if err != nil {
		return err
	}
	defer stop2()
	c2 := client.New(base)
	if err := waitHealthy(ctx, c2); err != nil {
		return err
	}
	u, err := c2.GetUser(ctx, authors[0])
	if err != nil || u.ID != authors[0] {
		return fmt.Errorf("restart recovery: GetUser(%s) = %+v, %v", authors[0], u, err)
	}
	res, err := c2.Search(ctx, "quasiconformal sharding", "", "", 10)
	if err != nil || len(res.Items) < len(authors) {
		return fmt.Errorf("restart recovery: search = %d items, %v", len(res.Items), err)
	}
	fmt.Printf("shard-smoke: %-36s ok\n", "restart recovers all shards")
	return nil
}

// shardAuthors returns one user ID per shard (probing candidate IDs
// through the wire-contract hash), so the smoke provably exercises
// every shard.
func shardAuthors(shards int) []string {
	authors := make([]string, shards)
	for i, found := 0, 0; found < shards && i < 100000; i++ {
		id := fmt.Sprintf("shard-author-%d", i)
		if s := api.ShardOf(id, shards); authors[s] == "" {
			authors[s] = id
			found++
		}
	}
	return authors
}

func shardStepMap(ctx context.Context, c *client.Client, shards int) error {
	h, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	if h.ShardCount != shards || len(h.Shards) != shards {
		return fmt.Errorf("healthz shard map = count %d, %d shards", h.ShardCount, len(h.Shards))
	}
	cs, err := c.ClusterStatus(ctx)
	if err != nil {
		return err
	}
	if cs.ShardCount != shards || len(cs.Shards) != shards {
		return fmt.Errorf("cluster shard map = count %d, %d shards", cs.ShardCount, len(cs.Shards))
	}
	for i, s := range cs.Shards {
		if s.ID != i || s.Role != api.RoleLeader {
			return fmt.Errorf("shard %d reports id %d role %q", i, s.ID, s.Role)
		}
	}
	if got := c.ShardCount(); got != shards {
		return fmt.Errorf("client adopted shard count %d, want %d", got, shards)
	}
	return nil
}

func shardStepWrites(ctx context.Context, c *client.Client, authors []string) error {
	for i, id := range authors {
		if err := c.CreateUser(ctx, api.User{ID: id, Name: "Sharder", Interests: []string{"sharding"}}); err != nil {
			return err
		}
		if err := c.CreatePaper(ctx, api.Paper{
			ID:       fmt.Sprintf("shard-p%d", i),
			Title:    fmt.Sprintf("Quasiconformal sharding volume %d", i),
			Abstract: "Per-owner shard leaders with parallel delta pipelines.",
			Authors:  []string{id},
		}); err != nil {
			return err
		}
	}
	if err := c.Refresh(ctx, true); err != nil {
		return err
	}
	// Scatter-gather: one query must surface the papers that live on
	// four different shards, in one globally-scored ranking.
	res, err := c.Search(ctx, "quasiconformal sharding", "", "", 10)
	if err != nil {
		return err
	}
	got := map[string]bool{}
	for _, r := range res.Items {
		got[r.DocID] = true
	}
	for i := range authors {
		if doc := fmt.Sprintf("paper/shard-p%d", i); !got[doc] {
			return fmt.Errorf("search missed %s (results %v)", doc, res.Items)
		}
	}
	return nil
}

func shardStepFeed(ctx context.Context, c *client.Client, authors []string) error {
	const reader = "shard-reader"
	if err := c.CreateUser(ctx, api.User{ID: reader, Name: "Reader"}); err != nil {
		return err
	}
	for _, id := range authors {
		if err := c.Follow(ctx, reader, id); err != nil {
			return err
		}
	}
	// Three feed events per author, written through the routed path.
	// Each question targets a different author's paper, so the events
	// land on the *paper's* shard (questions colocate with their
	// target) — the feed gather must find an actor's events on shards
	// other than the actor's own.
	for i, id := range authors {
		for j := 0; j < 3; j++ {
			if err := c.Ask(ctx, api.Question{
				ID:     fmt.Sprintf("shard-q%d-%d", i, j),
				Author: id,
				Target: fmt.Sprintf("shard-p%d", (i+j)%len(authors)),
				Text:   "Cross-shard feed event?",
			}); err != nil {
				return err
			}
		}
	}
	// Page through with a small limit: the vector cursor must visit all
	// 12 events exactly once, newest-first within each page.
	seen := map[string]bool{}
	actors := map[string]bool{}
	cursor := ""
	for page := 0; ; page++ {
		if page > 20 {
			return fmt.Errorf("feed pagination did not terminate")
		}
		pg, err := c.Feed(ctx, reader, cursor, 5)
		if err != nil {
			return err
		}
		for _, ev := range pg.Items {
			key := ev.Actor + "|" + ev.Verb + "|" + ev.Object + "|" + fmt.Sprint(ev.At)
			if seen[key] {
				return fmt.Errorf("event %s repeated across pages", key)
			}
			seen[key] = true
			actors[ev.Actor] = true
		}
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if len(seen) < 3*len(authors) {
		return fmt.Errorf("feed saw %d events, want >= %d", len(seen), 3*len(authors))
	}
	for _, id := range authors {
		if !actors[id] {
			return fmt.Errorf("feed missed events from %s (their shard was not gathered)", id)
		}
	}
	return nil
}

// shardStepWrongShard checks the wrong_shard contract over the raw
// wire: declaring the wrong shard on a write answers 409 with the
// typed envelope naming the owner's real shard, and the SDK's owner
// hashing (which learned the count from the cluster endpoint) lands
// the same write cleanly.
func shardStepWrongShard(ctx context.Context, c *client.Client, base string, shards int) error {
	owner := "shard-author-0"
	wrong := (api.ShardOf(owner, shards) + 1) % shards
	body := fmt.Sprintf(`{"id":"shard-wrong","title":"Misrouted","authors":[%q]}`, owner)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/papers", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ShardHeader, strconv.Itoa(wrong))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("mis-declared shard answered %d, want 409", resp.StatusCode)
	}
	var envelope struct {
		Error *api.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == nil {
		return fmt.Errorf("decode wrong_shard envelope: %v", err)
	}
	if envelope.Error.Code != api.CodeWrongShard {
		return fmt.Errorf("error code = %q, want %q", envelope.Error.Code, api.CodeWrongShard)
	}
	expected, _ := envelope.Error.Details["expected_shard"].(float64)
	count, _ := envelope.Error.Details["shard_count"].(float64)
	if int(expected) != api.ShardOf(owner, shards) || int(count) != shards {
		return fmt.Errorf("details = %v, want expected_shard %d shard_count %d",
			envelope.Error.Details, api.ShardOf(owner, shards), shards)
	}
	// The SDK computes the right shard from the adopted map and the
	// same write goes through first try.
	if err := c.CreatePaper(ctx, api.Paper{
		ID: "shard-right", Title: "Routed", Authors: []string{owner}}); err != nil {
		return err
	}
	return nil
}

// --- Metrics scenario (`make metrics-smoke`) ------------------------------------

// runMetrics checks the observability contract end to end: phase one
// drives a four-shard node and reads its own traffic back out of
// GET /metrics and GET /api/v1/debug/traces; phase two proves a trace
// ID survives a not_leader redirect across a two-node elected cluster.
func runMetrics(hived, addr string, seed int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := metricsShardedPhase(ctx, hived, addr, seed); err != nil {
		return fmt.Errorf("sharded phase: %w", err)
	}
	if err := metricsFailoverPhase(ctx, hived, addr); err != nil {
		return fmt.Errorf("failover phase: %w", err)
	}
	return nil
}

// scrapeMetrics fetches one Prometheus text exposition.
func scrapeMetrics(ctx context.Context, base string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return "", fmt.Errorf("GET /metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// metricValue finds the sample line `<sample> <value>` in an
// exposition. sample must be the full series name including any label
// set, e.g. `hive_http_requests_total{route="/api/v1/papers",...}`.
func metricValue(body, sample string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// findTrace pulls a node's debug/traces ring and returns the recorded
// entry for one trace ID.
func findTrace(ctx context.Context, base, tid string) (api.TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/debug/traces?n=256", nil)
	if err != nil {
		return api.TraceInfo{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return api.TraceInfo{}, err
	}
	defer resp.Body.Close()
	var report api.TraceReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		return api.TraceInfo{}, fmt.Errorf("decode debug/traces: %w", err)
	}
	for _, tr := range report.Traces {
		if tr.TraceID == tid {
			return tr, nil
		}
	}
	return api.TraceInfo{}, fmt.Errorf("trace %s not in %s/api/v1/debug/traces (%d retained)", tid, base, len(report.Traces))
}

// metricsShardedPhase boots a four-shard node and asserts the
// exposition moves with the traffic: per-shard gauges at baseline, the
// POST counter across routed writes, the fan-out histogram and the
// SDK's trace (with per-shard stages) across a scatter-gather search,
// and the 4xx counter plus envelope trace_id on a wrong_shard 409.
func metricsShardedPhase(ctx context.Context, hived, addr string, seed int) error {
	dir, err := os.MkdirTemp("", "hive-metrics-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const shards = 4
	stop, err := startHived(hived,
		"-addr", addr,
		"-shards", fmt.Sprint(shards),
		"-data", dir,
		"-seed", fmt.Sprint(seed),
		"-compact-interval", "1s",
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stop()

	base := "http://" + addr
	c := client.New(base)
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}

	before, err := scrapeMetrics(ctx, base)
	if err != nil {
		return err
	}
	for s := 0; s < shards; s++ {
		for _, g := range []string{"hive_shard_docs", "hive_pending_events", "hive_overlay_docs", "hive_commit_index"} {
			if _, ok := metricValue(before, fmt.Sprintf(`%s{shard="%d"}`, g, s)); !ok {
				return fmt.Errorf("baseline exposition missing %s for shard %d", g, s)
			}
		}
	}
	fmt.Printf("metrics-smoke: %-38s ok\n", "per-shard gauges exposed")

	// Routed writes: one author and paper per shard; the POST counter
	// must advance by at least what we sent.
	const paperPost = `hive_http_requests_total{route="/api/v1/papers",method="POST",class="2xx"}`
	papersBefore, _ := metricValue(before, paperPost)
	authors := shardAuthors(shards)
	for i, id := range authors {
		if err := c.CreateUser(ctx, api.User{ID: id, Name: "Observer"}); err != nil {
			return err
		}
		if err := c.CreatePaper(ctx, api.Paper{
			ID:       fmt.Sprintf("metrics-p%d", i),
			Title:    fmt.Sprintf("Observable sharding volume %d", i),
			Abstract: "Counters advance with the routed write path.",
			Authors:  []string{id},
		}); err != nil {
			return err
		}
	}
	if err := c.Refresh(ctx, true); err != nil {
		return err
	}
	mid, err := scrapeMetrics(ctx, base)
	if err != nil {
		return err
	}
	papersAfter, ok := metricValue(mid, paperPost)
	if !ok || papersAfter < papersBefore+float64(len(authors)) {
		return fmt.Errorf("%s = %v after %d routed writes (was %v)", paperPost, papersAfter, len(authors), papersBefore)
	}
	fmt.Printf("metrics-smoke: %-38s ok\n", "routed-write counters advance")

	// Scatter-gather search: the fan-out histogram and the search route
	// counter advance, and the trace the SDK minted lands in the debug
	// ring carrying its per-shard fan-out stages.
	const fanout = `hive_scatter_fanout_seconds_count{op="search"}`
	const searchGet = `hive_http_requests_total{route="/api/v1/search",method="GET",class="2xx"}`
	fanBefore, _ := metricValue(mid, fanout)
	searchBefore, _ := metricValue(mid, searchGet)
	if _, err := c.Search(ctx, "observable sharding", "", "", 10); err != nil {
		return err
	}
	tid := c.LastTraceID()
	if len(tid) != 16 {
		return fmt.Errorf("client minted trace ID %q, want 16 hex chars", tid)
	}
	after, err := scrapeMetrics(ctx, base)
	if err != nil {
		return err
	}
	if fanAfter, ok := metricValue(after, fanout); !ok || fanAfter < fanBefore+1 {
		return fmt.Errorf("%s = %v after a scatter search (was %v)", fanout, fanAfter, fanBefore)
	}
	if searchAfter, ok := metricValue(after, searchGet); !ok || searchAfter < searchBefore+1 {
		return fmt.Errorf("%s = %v after a search (was %v)", searchGet, searchAfter, searchBefore)
	}
	info, err := findTrace(ctx, base, tid)
	if err != nil {
		return err
	}
	if info.Route != "/api/v1/search" {
		return fmt.Errorf("trace %s recorded route %q, want /api/v1/search", tid, info.Route)
	}
	hasStage := false
	for _, st := range info.Stages {
		if strings.HasPrefix(st.Name, "search_shard") {
			hasStage = true
		}
	}
	if !hasStage {
		return fmt.Errorf("trace %s has no search_shard* fan-out stages: %+v", tid, info.Stages)
	}
	fmt.Printf("metrics-smoke: %-38s ok\n", "scatter trace + fan-out histogram")

	// A mis-declared shard: the 409 echoes our trace ID in the envelope
	// and counts into the 4xx class of the same route.
	const paper4xx = `hive_http_requests_total{route="/api/v1/papers",method="POST",class="4xx"}`
	wrongBefore, _ := metricValue(after, paper4xx)
	const wrongTID = "feedfacecafebeef"
	owner := authors[0]
	wrong := (api.ShardOf(owner, shards) + 1) % shards
	body := fmt.Sprintf(`{"id":"metrics-wrong","title":"Misrouted","authors":[%q]}`, owner)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/papers", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ShardHeader, strconv.Itoa(wrong))
	req.Header.Set(api.TraceHeader, wrongTID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	var env api.ErrorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || decodeErr != nil || env.Error == nil {
		return fmt.Errorf("mis-declared shard: status %d, decode err %v", resp.StatusCode, decodeErr)
	}
	if env.TraceID != wrongTID {
		return fmt.Errorf("wrong_shard envelope trace_id = %q, want %q", env.TraceID, wrongTID)
	}
	final, err := scrapeMetrics(ctx, base)
	if err != nil {
		return err
	}
	if wrongAfter, ok := metricValue(final, paper4xx); !ok || wrongAfter < wrongBefore+1 {
		return fmt.Errorf("%s = %v after a wrong_shard 409 (was %v)", paper4xx, wrongAfter, wrongBefore)
	}
	fmt.Printf("metrics-smoke: %-38s ok\n", "wrong_shard 409 traced + counted")
	return nil
}

// metricsFailoverPhase boots a two-node elected cluster and proves the
// trace the SDK minted for one write survives the not_leader redirect:
// the same ID is recorded with a 409 on the rejecting follower and
// with the success status on the leader that served the replay. It
// also spot-checks the election and replication instruments.
func metricsFailoverPhase(ctx context.Context, hived, addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -addr: %w", err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("bad -addr port: %w", err)
	}
	leaderAddr := net.JoinHostPort(host, fmt.Sprint(p+1))
	followerAddr := net.JoinHostPort(host, fmt.Sprint(p+2))
	leaderBase := "http://" + leaderAddr
	followerBase := "http://" + followerAddr

	dirs := make([]string, 2)
	for i := range dirs {
		if dirs[i], err = os.MkdirTemp("", fmt.Sprintf("hive-metrics-n%d-", i)); err != nil {
			return err
		}
		defer os.RemoveAll(dirs[i])
	}
	leaseDir, err := os.MkdirTemp("", "hive-metrics-lease-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(leaseDir)
	clusterFlag := func(self, peer string) string {
		return fmt.Sprintf("self=%s,peers=%s,lease=%s,ttl=1s", self, peer, leaseDir)
	}

	stopLeader, err := startHived(hived,
		"-addr", leaderAddr,
		"-data", dirs[0],
		"-cluster", clusterFlag(leaderBase, followerBase),
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stopLeader()
	lc := client.New(leaderBase)
	if err := waitRole(ctx, lc, api.RoleLeader, 30*time.Second); err != nil {
		return fmt.Errorf("leader: %w", err)
	}

	stopFollower, err := startHived(hived,
		"-addr", followerAddr,
		"-data", dirs[1],
		"-cluster", clusterFlag(followerBase, leaderBase),
		"-quiet",
	)
	if err != nil {
		return err
	}
	defer stopFollower()
	fc := client.New(followerBase)
	if err := waitRole(ctx, fc, api.RoleFollower, 30*time.Second); err != nil {
		return fmt.Errorf("follower: %w", err)
	}

	// A cluster-aware client aimed at the follower: the write bounces
	// with not_leader, and the SDK replays the *same* trace ID against
	// the hinted leader.
	cc := client.New(followerBase, client.WithCluster(leaderBase))
	if err := cc.CreateUser(ctx, api.User{ID: "traced-across-failover", Name: "T"}); err != nil {
		return fmt.Errorf("redirected write: %w", err)
	}
	if cc.Redirects() < 1 {
		return fmt.Errorf("write landed without a redirect (follower answered a write?)")
	}
	tid := cc.LastTraceID()
	if len(tid) != 16 {
		return fmt.Errorf("redirected write trace ID = %q, want 16 hex chars", tid)
	}
	fInfo, err := findTrace(ctx, followerBase, tid)
	if err != nil {
		return fmt.Errorf("trace on rejecting follower: %w", err)
	}
	if fInfo.Status != http.StatusConflict {
		return fmt.Errorf("follower recorded status %d for %s, want 409", fInfo.Status, tid)
	}
	lInfo, err := findTrace(ctx, leaderBase, tid)
	if err != nil {
		return fmt.Errorf("trace on serving leader: %w", err)
	}
	if lInfo.Status < 200 || lInfo.Status >= 300 {
		return fmt.Errorf("leader recorded status %d for %s, want 2xx", lInfo.Status, tid)
	}
	fmt.Printf("metrics-smoke: %-38s ok\n", "trace survives not_leader failover")

	// The election and replication layers report through the same
	// registry: the leader minted a term (lease claim survived the
	// settle window), and the follower's poll loop both times its
	// rounds and exposes its lag.
	lm, err := scrapeMetrics(ctx, leaderBase)
	if err != nil {
		return err
	}
	if v, ok := metricValue(lm, "hive_election_lease_acquisitions_total"); !ok || v < 1 {
		return fmt.Errorf("leader hive_election_lease_acquisitions_total = %v, want >= 1", v)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fm, err := scrapeMetrics(ctx, followerBase)
		if err != nil {
			return err
		}
		if _, ok := metricValue(fm, "hive_replication_lag_events"); !ok {
			return fmt.Errorf("follower exposition missing hive_replication_lag_events")
		}
		if v, ok := metricValue(fm, "hive_replication_poll_seconds_count"); ok && v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower hive_replication_poll_seconds_count never reached 1")
		}
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Printf("metrics-smoke: %-38s ok\n", "election + replication instruments")
	return nil
}

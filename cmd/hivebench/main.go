// Command hivebench regenerates every experiment in EXPERIMENTS.md
// (E1-E12): one table per paper artifact (Figures 1-4, Table 1) and per
// substrate performance claim (SCENT, INI, R2DF, AlphaSum, CF, concept
// bootstrap, snippets). Absolute numbers depend on the host; the *shapes*
// (who wins, by what factor) are the reproduction targets.
//
// Usage:
//
//	hivebench [-run E6] [-users 64]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hive"
	"hive/client"
	"hive/internal/align"
	"hive/internal/conceptmap"
	"hive/internal/core"
	"hive/internal/diffusion"
	"hive/internal/election"
	"hive/internal/graph"
	"hive/internal/rdf"
	"hive/internal/server"
	"hive/internal/summarize"
	"hive/internal/tensor"
	"hive/internal/textindex"
	"hive/internal/workload"
	"hive/internal/workload/httpload"
)

func main() {
	run := flag.String("run", "", "run only this experiment (e.g. E6); empty = all")
	users := flag.Int("users", 64, "workload size for platform experiments")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		fn   func(users int)
	}{
		{"E1", "Figure 1 — platform API latency", e1},
		{"E2", "Figure 2 — relationship discovery & explanation", e2},
		{"E3", "Figure 3 — layer alignment & integration", e3},
		{"E4", "Figure 4 — workpad context vs no context", e4},
		{"E5", "Table 1 — service matrix", e5},
		{"E6", "SCENT — sketched vs exact change detection", e6},
		{"E7", "INI — indexed vs online impact queries", e7},
		{"E8", "R2DF — ranked path search vs naive enumeration", e8},
		{"E9", "AlphaSum — greedy vs optimal summarization", e9},
		{"E10", "CF — collaborative filtering vs popularity", e10},
		{"E11", "Concept-map bootstrapping", e11},
		{"E12", "Context-aware snippet extraction", e12},
		{"E13", "v1 API — batch vs per-entity ingest", e13},
		{"E14", "write visibility — delta apply vs full rebuild", e14},
		{"E15", "replication — follower lag & read scaling", e15},
		{"E16", "failover — detect -> promote -> first accepted write", e16},
		{"E17", "quorum writes — acknowledged-write latency at k=0/1/2", e17},
		{"E18", "sharded write path — throughput scaling & scatter-gather reads", e18},
	}
	for _, ex := range experiments {
		if *run != "" && !strings.EqualFold(*run, ex.id) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", ex.id, ex.name)
		ex.fn(*users)
	}
}

// buildPlatform loads a synthetic workload and refreshes the engine.
func buildPlatform(users int) *hive.Platform {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	if err := ds.Load(p.Store()); err != nil {
		log.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		log.Fatal(err)
	}
	return p
}

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// reportServerHistogram scrapes GET /metrics on the server under test
// and prints one latency histogram's (count, mean) per label set — the
// same counters a production scrape would report, so the harness's
// client-side timings can be cross-checked against the server's own
// view. Counts accumulate for the process lifetime (the registry is
// process-wide), so call it right after the experiment's traffic.
func reportServerHistogram(base, name string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sums, counts := map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		series, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(series, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		metric, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			metric, labels = series[:i], series[i:]
		}
		switch metric {
		case name + "_sum":
			sums[labels] = v
		case name + "_count":
			counts[labels] = v
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("server-side %s (scraped from /metrics):\n", name)
	for _, k := range keys {
		if counts[k] == 0 {
			continue
		}
		label := k
		if label == "" {
			label = "(all)"
		}
		fmt.Printf("  %-52s %8.0f obs  mean %8.3f ms\n", label, counts[k], sums[k]/counts[k]*1000)
	}
}

// e1: latency of representative v1 REST endpoints over the seeded
// platform, driven through the client SDK. The final row repeats the
// search with the SDK's ETag cache on: an unchanged snapshot
// revalidates with a 304 instead of recompute+encode.
func e1(users int) {
	p := buildPlatform(users)
	defer p.Close()
	ts := httptest.NewServer(server.New(p))
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL)
	cached := client.New(ts.URL, client.WithETagCache())
	ids := p.Users()
	uid := ids[0]

	type row struct {
		name string
		fn   func() error
	}
	endpoints := []row{
		{"profile", func() error { _, err := c.GetUser(ctx, uid); return err }},
		{"feed", func() error { _, err := c.Feed(ctx, uid, "", 20); return err }},
		{"search", func() error { _, err := c.Search(ctx, "graph partitioning", "", "", 10); return err }},
		{"ctx-search", func() error { _, err := c.Search(ctx, "graph partitioning", uid, "", 10); return err }},
		{"peer-recs", func() error { _, err := c.PeerRecommendations(ctx, uid, "", 5); return err }},
		{"digest", func() error { _, err := c.Digest(ctx, uid, 5); return err }},
		{"search-304", func() error { _, err := cached.Search(ctx, "graph partitioning", "", "", 10); return err }},
	}
	if len(ids) > 1 { // relationship needs a second researcher
		other := ids[1]
		endpoints = append(endpoints, row{"relationship", func() error {
			_, err := c.Relationship(ctx, uid, other)
			return err
		}})
	}

	fmt.Printf("%-14s %10s %12s\n", "endpoint", "calls", "mean-latency")
	for _, ep := range endpoints {
		const calls = 50
		d := timeIt(func() {
			for i := 0; i < calls; i++ {
				if err := ep.fn(); err != nil {
					log.Fatal(err)
				}
			}
		})
		fmt.Printf("%-14s %10d %12v\n", ep.name, calls, d/calls)
	}
	if _, hits := cached.Stats(); hits > 0 {
		fmt.Printf("search-304: %d of 50 calls served via ETag revalidation\n", hits)
	}
	reportServerHistogram(ts.URL, "hive_http_request_seconds")
}

// e13: bulk ingest through POST /api/v1/batch (chunked, one snapshot
// invalidation per chunk) vs one typed request per entity — the scale
// path for bulk loaders.
func e13(users int) {
	ctx := context.Background()
	run := func(name string, load func(c *client.Client, ds *workload.Dataset) error) {
		p, err := hive.Open(hive.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		ts := httptest.NewServer(server.New(p))
		defer ts.Close()
		ds := workload.Generate(workload.Config{Seed: 42, Users: users})
		c := client.New(ts.URL)
		d := timeIt(func() {
			if err := load(c, ds); err != nil {
				log.Fatal(err)
			}
		})
		n := len(p.Store().EventsSince(0, 0)) // proxy for applied interactions
		fmt.Printf("%-14s %12v %10d users %8d events\n", name, d, users, n)
	}
	fmt.Printf("%-14s %12s\n", "method", "wall-time")
	run("per-entity", func(c *client.Client, ds *workload.Dataset) error {
		return httpload.PerEntity(ctx, c, ds)
	})
	for _, chunk := range []int{64, 256, 1024} {
		chunk := chunk
		run(fmt.Sprintf("batch-%d", chunk), func(c *client.Client, ds *workload.Dataset) error {
			return httpload.Batch(ctx, c, ds, chunk)
		})
	}
	fmt.Println("shape: batch ingest amortizes round trips and snapshot invalidations; bigger chunks win until payload size dominates")
}

// e14: write visibility — the time from a mutation returning until the
// written entity is observable through the knowledge services. The
// delta arm (the default pipeline) folds the mutation's change events
// into the serving snapshot synchronously; the baseline arm adds an
// explicit Refresh() after the write — the full rebuild that visibility
// cost before deltas. Feed visibility is also measured: feeds read the
// store directly and were always immediate.
func e14(users int) {
	const trials = 20
	measure := func(name string, rebuild bool) {
		p, err := hive.Open(hive.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		ds := workload.Generate(workload.Config{Seed: 42, Users: users})
		if err := p.Store().Batched(func() error { return ds.Load(p.Store()) }); err != nil {
			log.Fatal(err)
		}
		if err := p.Refresh(); err != nil {
			log.Fatal(err)
		}
		uid := p.Users()[0]
		if err := p.RegisterUser(hive.User{ID: "e14-follower", Name: "Watcher"}); err != nil {
			log.Fatal(err)
		}
		if err := p.Follow("e14-follower", uid); err != nil {
			log.Fatal(err)
		}

		var searchVis, feedVis time.Duration
		for i := 0; i < trials; i++ {
			token := fmt.Sprintf("xylophylax%d", i) // unique, unambiguous probe term
			start := time.Now()
			if err := p.PublishPaper(hive.Paper{
				ID: fmt.Sprintf("e14-%d", i), Title: "Visibility probe " + token,
				Abstract: "measuring mutation-to-search latency " + token,
				Authors:  []string{uid},
			}); err != nil {
				log.Fatal(err)
			}
			if rebuild {
				if err := p.Refresh(); err != nil {
					log.Fatal(err)
				}
			}
			// Poll through the serving path until the write is searchable.
			for {
				res, err := p.Search(token, 1)
				if err != nil {
					log.Fatal(err)
				}
				if len(res) > 0 {
					break
				}
			}
			searchVis += time.Since(start)

			start = time.Now()
			seq, err := p.Store().LogEvent(uid, "browse", fmt.Sprintf("e14-%d", i), nil)
			if err != nil {
				log.Fatal(err)
			}
			for { // feeds read the store directly: first poll hits
				evs := p.Feed("e14-follower", 1)
				if len(evs) > 0 && evs[0].Seq >= seq {
					break
				}
			}
			feedVis += time.Since(start)
		}
		fmt.Printf("%-22s %14v %14v\n", name, searchVis/trials, feedVis/trials)
	}
	fmt.Printf("%-22s %14s %14s\n", "pipeline", "publish→search", "checkin→feed")
	measure("delta (default)", false)
	measure("full-rebuild base", true)
	fmt.Println("shape: the delta pipeline makes writes searchable in ~milliseconds (one overlay apply);")
	fmt.Println("       the rebuild baseline pays an O(corpus) engine build per visibility repair")
}

// e15: replication — (a) follower lag: wall time from a leader publish
// returning until the paper is searchable on a follower tailing the
// journal; (b) read scaling: aggregate search QPS against the leader
// alone vs round-robin over leader + N followers. All nodes run
// in-process behind httptest listeners; absolute QPS depends on the
// host and on every node sharing its cores, so the *ratio* is the
// reproduction target (it understates what separate machines get).
func e15(users int) {
	const followers = 2
	dir, err := os.MkdirTemp("", "hive-e15-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	leader, err := hive.Open(hive.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer leader.Close()
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	if err := leader.Store().Batched(func() error { return ds.Load(leader.Store()) }); err != nil {
		log.Fatal(err)
	}
	if err := leader.Refresh(); err != nil {
		log.Fatal(err)
	}
	lts := httptest.NewServer(server.New(leader))
	defer lts.Close()

	urls := []string{lts.URL}
	var reps []*hive.Platform
	for i := 0; i < followers; i++ {
		// A Manual elector pinned to the follower role: the benchmark
		// wants a fixed topology, not a live election.
		el := election.NewManual()
		el.Set(election.State{Role: election.Follower, Leader: lts.URL})
		fdir, err := os.MkdirTemp("", "hive-e15-f-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(fdir)
		f, err := hive.Open(hive.Options{
			Dir: fdir,
			Cluster: &hive.ClusterConfig{
				SelfURL:  fmt.Sprintf("http://e15-follower-%d.test", i),
				Election: el,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		fts := httptest.NewServer(server.New(f))
		defer fts.Close()
		reps = append(reps, f)
		urls = append(urls, fts.URL)
	}
	waitConverged := func() {
		for {
			want := leader.Store().ChangeSeq()
			ok := true
			for _, f := range reps {
				if f.ReplicationApplied() < want || f.Stale() {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitConverged()

	// (a) Follower lag: publish on the leader, poll a follower's
	// serving snapshot until searchable.
	const trials = 20
	uid := leader.Users()[0]
	var lag time.Duration
	for i := 0; i < trials; i++ {
		token := fmt.Sprintf("replprobe%d", i)
		start := time.Now()
		if err := leader.PublishPaper(hive.Paper{
			ID: fmt.Sprintf("e15-%d", i), Title: "Replication probe " + token,
			Abstract: "lag measurement " + token, Authors: []string{uid},
		}); err != nil {
			log.Fatal(err)
		}
		for {
			eng := reps[0].Snapshot()
			if eng != nil && len(eng.Search(token, 1)) > 0 {
				break
			}
		}
		lag += time.Since(start)
	}
	fmt.Printf("publish→follower-searchable lag: %v avg over %d trials (bound: < 1s)\n",
		(lag / trials).Round(time.Microsecond), trials)
	waitConverged()

	// (b) Read scaling: concurrent context-aware searches, leader-only
	// vs round-robin across all nodes. In-process the nodes share one
	// CPU budget, so aggregate QPS cannot grow here; the signal is the
	// per-node share — identical total service with the leader handling
	// only 1/(N+1) of the read traffic. On separate machines that share
	// translates into aggregate scaling with node count.
	ids := leader.Users()
	queries := []string{"graph databases", "distributed systems", "social networks", "information retrieval"}
	measure := func(name string, targets []string) {
		const dur = 2 * time.Second
		workers := 4 * len(targets)
		perNode := make([]atomic.Int64, len(targets))
		stop := time.Now().Add(dur)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				node := w % len(targets)
				c := client.New(targets[node])
				ctx := context.Background()
				for i := 0; time.Now().Before(stop); i++ {
					q := queries[(w+i)%len(queries)]
					u := ids[(w*31+i)%len(ids)]
					if _, err := c.Search(ctx, q, u, "", 10); err != nil {
						log.Fatal(err)
					}
					perNode[node].Add(1)
				}
			}(w)
		}
		wg.Wait()
		var total int64
		shares := make([]string, len(targets))
		for i := range perNode {
			total += perNode[i].Load()
		}
		for i := range perNode {
			shares[i] = fmt.Sprintf("%.0f%%", 100*float64(perNode[i].Load())/float64(total))
		}
		fmt.Printf("%-26s %10.0f searches/s  leader share %s (of %s)\n",
			name, float64(total)/dur.Seconds(), shares[0], strings.Join(shares, "/"))
	}
	fmt.Printf("%-26s %10s\n", "topology", "throughput")
	measure("single node (leader)", urls[:1])
	measure(fmt.Sprintf("leader + %d followers", followers), urls)
	fmt.Println("shape: followers answer the full read API from their own snapshots with identical")
	fmt.Println("       results, so read traffic spreads ~evenly and the leader keeps its capacity")
	fmt.Println("       for writes; across real machines aggregate QPS scales with node count")
}

// e16: failover time of the elected cluster — a three-node FileLease
// set loses its leader to a crash-equivalent close (the lease is left
// to expire, like a kill), and the clocks measure detect→promote (a
// survivor holds the lease at a higher epoch) and detect→first accepted
// SDK write (the end-to-end outage a cluster-aware writer sees).
func e16(users int) {
	const (
		trials = 3
		ttl    = 300 * time.Millisecond
	)
	ctx := context.Background()
	var promoteSum, writeSum time.Duration

	for trial := 0; trial < trials; trial++ {
		leaseDir, err := os.MkdirTemp("", "hive-e16-lease-")
		if err != nil {
			log.Fatal(err)
		}

		type node struct {
			url string
			ts  *httptest.Server
			p   *hive.Platform
		}
		const members = 3
		listeners := make([]net.Listener, members)
		urls := make([]string, members)
		for i := range listeners {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			listeners[i] = l
			urls[i] = "http://" + l.Addr().String()
		}
		nodes := make([]*node, members)
		dirs := []string{leaseDir}
		for i := range nodes {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			lease, err := election.NewFileLease(election.LeaseConfig{Dir: leaseDir, Self: urls[i], TTL: ttl})
			if err != nil {
				log.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "hive-e16-node-")
			if err != nil {
				log.Fatal(err)
			}
			dirs = append(dirs, dir)
			p, err := hive.Open(hive.Options{
				Dir:     dir,
				Cluster: &hive.ClusterConfig{SelfURL: urls[i], Peers: peers, Election: lease},
			})
			if err != nil {
				log.Fatal(err)
			}
			ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: server.New(p)}}
			ts.Start()
			nodes[i] = &node{url: urls[i], ts: ts, p: p}
		}
		cleanupDirs := func() {
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}

		waitLeader := func(pool []*node) *node {
			for {
				for _, n := range pool {
					if n.p.Role() == "leader" {
						return n
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		leader := waitLeader(nodes)
		for i := 0; i < 8; i++ {
			if err := leader.p.RegisterUser(hive.User{
				ID: fmt.Sprintf("e16-u%d", i), Name: "Seed", Interests: []string{"failover"}}); err != nil {
				log.Fatal(err)
			}
		}
		var followerURL string
		for _, n := range nodes {
			if n != leader {
				followerURL = n.url
				break
			}
		}
		c := client.New(followerURL, client.WithCluster(urls...))
		if err := c.CreateUser(ctx, hive.User{ID: "e16-warm", Name: "Warm"}); err != nil {
			log.Fatal(err)
		}

		// Crash the leader: connections die, the platform closes, the
		// lease is left to lapse.
		killAt := time.Now()
		leader.ts.CloseClientConnections()
		leader.ts.Close()
		leader.p.Close()

		var survivors []*node
		for _, n := range nodes {
			if n != leader {
				survivors = append(survivors, n)
			}
		}
		waitLeader(survivors)
		promoteSum += time.Since(killAt)

		for i := 0; ; i++ {
			if err := c.CreateUser(ctx, hive.User{ID: fmt.Sprintf("e16-post-%d-%d", trial, i), Name: "Post"}); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		writeSum += time.Since(killAt)

		for _, n := range survivors {
			n.ts.CloseClientConnections()
			n.ts.Close()
			n.p.Close()
		}
		cleanupDirs()
	}
	fmt.Printf("lease ttl %v, %d-node cluster, %d trials\n", ttl, 3, trials)
	fmt.Printf("detect -> promote:              %v avg\n", (promoteSum / trials).Round(time.Millisecond))
	fmt.Printf("detect -> first accepted write: %v avg\n", (writeSum / trials).Round(time.Millisecond))
	fmt.Println("shape: both clocks are dominated by the lease TTL (detection horizon) plus one")
	fmt.Println("       claim round; the write clock adds the SDK's re-resolution and one retry")
	_ = users
}

// e17: the price of synchronous durability — per-write latency of the
// same three-node cluster at quorum sizes k=0 (async, the PR-7
// behaviour), k=1 (one follower must confirm) and k=2 (every follower
// must confirm). The ack rides the replication long-poll, so the
// expected step from k=0 to k>0 is one poll round trip, not a new
// connection per write.
func e17(users int) {
	const (
		writes = 100
		ttl    = 300 * time.Millisecond
	)
	ctx := context.Background()
	fmt.Printf("3-node cluster, lease ttl %v, %d acknowledged writes per quorum size\n", ttl, writes)

	for _, k := range []int{0, 1, 2} {
		leaseDir, err := os.MkdirTemp("", "hive-e17-lease-")
		if err != nil {
			log.Fatal(err)
		}

		type node struct {
			url string
			ts  *httptest.Server
			p   *hive.Platform
		}
		const members = 3
		listeners := make([]net.Listener, members)
		urls := make([]string, members)
		for i := range listeners {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			listeners[i] = l
			urls[i] = "http://" + l.Addr().String()
		}
		nodes := make([]*node, members)
		dirs := []string{leaseDir}
		for i := range nodes {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			lease, err := election.NewFileLease(election.LeaseConfig{Dir: leaseDir, Self: urls[i], TTL: ttl})
			if err != nil {
				log.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "hive-e17-node-")
			if err != nil {
				log.Fatal(err)
			}
			dirs = append(dirs, dir)
			p, err := hive.Open(hive.Options{
				Dir: dir,
				Cluster: &hive.ClusterConfig{
					SelfURL: urls[i], Peers: peers, Election: lease,
					QuorumWrites: k,
				},
			})
			if err != nil {
				log.Fatal(err)
			}
			ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: server.New(p)}}
			ts.Start()
			nodes[i] = &node{url: urls[i], ts: ts, p: p}
		}

		var leader *node
		for leader == nil {
			for _, n := range nodes {
				if n.p.Role() == "leader" {
					leader = n
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		c := client.New(leader.url)
		// Warm until the follower ack flow is live: the first write at
		// k=2 cannot land before both followers are polling.
		for {
			if err := c.CreateUser(ctx, hive.User{ID: fmt.Sprintf("e17-warm-k%d", k), Name: "Warm"}); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}

		lat := make([]time.Duration, 0, writes)
		for i := 0; i < writes; i++ {
			start := time.Now()
			if err := c.CreateUser(ctx, hive.User{
				ID: fmt.Sprintf("e17-k%d-u%d", k, i), Name: "Durable", Interests: []string{"quorum"}}); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		commit := leader.p.CommitIndex()
		fmt.Printf("k=%d: avg %v  p50 %v  p99 %v  (commit index %d)\n",
			k,
			(sum / writes).Round(10*time.Microsecond),
			lat[len(lat)/2].Round(10*time.Microsecond),
			lat[len(lat)*99/100].Round(10*time.Microsecond),
			commit)

		for _, n := range nodes {
			n.ts.CloseClientConnections()
			n.ts.Close()
			n.p.Close()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	fmt.Println("shape: k=0 is the async baseline; k>0 adds roughly one replication poll")
	fmt.Println("       round trip, and k=2 waits for the slower of the two followers")
	_ = users
}

// e18: the PR-9 tentpole — write throughput of the sharded platform at
// 1/2/4 shards, driven over HTTP through the shard-routing client SDK.
// Writers publish papers whose owners follow a Zipf distribution (the
// skew of real scholarly activity), so hot owners concentrate load on
// their shard; the offered load always exceeds capacity (a saturating
// writer pool), so the measured rate is the *sustained* ceiling of the
// write path: routed store mutation + per-shard change journal + the
// synchronous delta fold into that shard's serving snapshot. The read
// phase prices scatter-gather: every search fans out to all shard
// engines, scores under merged global statistics, and k-way-merges —
// results bit-identical to an unsharded node.
func e18(users int) {
	const (
		writers = 16
		window  = 2 * time.Second
		reads   = 300
	)
	ctx := context.Background()
	type row struct {
		shards   int
		wps      float64
		p50, p95 time.Duration
	}
	var rows []row
	for _, n := range []int{1, 2, 4} {
		sh, err := hive.OpenSharded(n, hive.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ds := workload.Generate(workload.Config{Seed: 42, Users: users})
		// Seed the fixture plus a back-catalog of prior papers (~100 per
		// user): a write's delta fold recomputes the author's content
		// vector by scanning their shard's corpus, so an almost-empty
		// store would understate what sharding buys a mid-life
		// deployment. The catalog spreads across shards by author hash.
		catalog := 100 * len(ds.Users)
		err = sh.Batched(func() error {
			if err := ds.LoadRouted(sh); err != nil {
				return err
			}
			for i := 0; i < catalog; i++ {
				if err := sh.PublishPaper(hive.Paper{
					ID:       fmt.Sprintf("e18-catalog-%d", i),
					Title:    "back catalog entry",
					Abstract: "prior work in the corpus before the measured window",
					Authors:  []string{ds.Users[i%len(ds.Users)].ID},
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sh.Refresh(); err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(server.NewSharded(sh, server.Config{}))
		c := client.New(ts.URL)
		if _, err := c.ClusterStatus(ctx); err != nil { // learn the shard map
			log.Fatal(err)
		}

		var total atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*n + w)))
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(ds.Users)-1))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					owner := ds.Users[zipf.Uint64()].ID
					if err := c.CreatePaper(ctx, hive.Paper{
						ID:       fmt.Sprintf("e18-%d-%d-%d", n, w, i),
						Title:    "sharded ingest under owner skew",
						Abstract: "write throughput scaling with shard count",
						Authors:  []string{owner},
					}); err != nil {
						log.Fatal(err)
					}
					total.Add(1)
				}
			}(w)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		wps := float64(total.Load()) / window.Seconds()

		lat := make([]time.Duration, 0, reads)
		for i := 0; i < reads; i++ {
			start := time.Now()
			if _, err := c.Search(ctx, "graph partitioning streams", "", "", 10); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		rows = append(rows, row{n, wps, lat[len(lat)/2], lat[len(lat)*95/100]})

		if n == 4 {
			// Cross-check against the server's own instruments (cumulative
			// over all three shard counts — the registry is process-wide).
			reportServerHistogram(ts.URL, "hive_scatter_fanout_seconds")
		}
		ts.Close()
		sh.Close()
	}
	fmt.Printf("%d users + %d-paper back-catalog seeded, %d writers, %v write window, zipf(s=1.2) owner skew\n",
		users, 100*users, writers, window)
	fmt.Printf("%-10s %14s %10s %18s %10s\n", "shards", "writes/s", "speedup", "search p50", "p95")
	for _, r := range rows {
		fmt.Printf("%-10d %14.0f %9.2fx %18v %10v\n",
			r.shards, r.wps, r.wps/rows[0].wps,
			r.p50.Round(10*time.Microsecond), r.p95.Round(10*time.Microsecond))
	}
	fmt.Println("shape: writes/s climbs with shard count (independent journals and delta")
	fmt.Println("       pipelines commit in parallel; the acceptance bar is ≥1.8x at 4 shards)")
	fmt.Println("       while scatter-gather adds a modest per-shard fan-out cost to reads")
}

// e2: relationship discovery latency + evidence histogram + fusion
// ablation.
func e2(users int) {
	p := buildPlatform(users)
	defer p.Close()
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	ids := p.Users()
	rng := rand.New(rand.NewSource(7))
	const pairs = 200
	hist := map[core.EvidenceKind]int{}
	var wsAgg, mxAgg float64
	d := timeIt(func() {
		for i := 0; i < pairs; i++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			if a == b {
				continue
			}
			ex, err := eng.Explain(a, b)
			if err != nil {
				log.Fatal(err)
			}
			for _, ev := range ex.Evidences {
				hist[ev.Kind]++
			}
			wsAgg += core.FuseWeightedSum(ex.Evidences)
			mxAgg += core.FuseMax(ex.Evidences)
		}
	})
	fmt.Printf("pairs=%d mean-latency=%v\n", pairs, d/pairs)
	fmt.Printf("%-28s %8s\n", "evidence-class", "count")
	for _, k := range []core.EvidenceKind{core.EvCoauthor, core.EvCitation, core.EvQA,
		core.EvSession, core.EvConference, core.EvFollow, core.EvProfile,
		core.EvAffiliation, core.EvContent, core.EvActivity} {
		fmt.Printf("%-28s %8d\n", k, hist[k])
	}
	fmt.Printf("fusion ablation: mean weighted-sum=%.4f mean max=%.4f\n",
		wsAgg/pairs, mxAgg/pairs)
}

// e3: alignment+integration cost vs network size.
func e3(_ int) {
	fmt.Printf("%-8s %10s %10s %14s\n", "users", "nodes", "edges", "integrate-time")
	for _, n := range []int{16, 32, 64, 128} {
		p := buildPlatform(n)
		eng, err := p.Engine()
		if err != nil {
			log.Fatal(err)
		}
		layers := eng.Layers()
		var in *align.Integrated
		d := timeIt(func() {
			var err error
			in, err = align.Integrate(layers, align.Options{})
			if err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-8d %10d %10d %14v  %s\n", n,
			eng.PeerGraph().NumNodes(), eng.PeerGraph().NumEdges(), d, in.String())
		p.Close()
	}
}

// e4: context-aware resource recommendation precision, with vs without
// the active workpad (the Figure 4 claim).
func e4(users int) {
	p := buildPlatform(users)
	defer p.Close()
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	prec := func(useCtx bool) float64 {
		var sum float64
		n := 0
		for _, u := range p.Users() {
			recs, err := eng.RecommendResources(u, 5, useCtx)
			if err != nil || len(recs) == 0 {
				continue
			}
			hits := 0
			for _, r := range recs {
				id := strings.TrimPrefix(strings.TrimPrefix(r.DocID, core.DocPaper), core.DocPresentation)
				topic, ok := ds.TopicOfPaper[id]
				if !ok {
					if pr, err := p.Store().Presentation(id); err == nil {
						topic, ok = ds.TopicOfPaper[pr.PaperID], true
					}
				}
				if ok && topic == ds.TopicOfUser[u] {
					hits++
				}
			}
			sum += float64(hits) / float64(len(recs))
			n++
		}
		return sum / float64(maxi(n, 1))
	}
	with := prec(true)
	without := prec(false)
	fmt.Printf("%-22s %12s\n", "arm", "precision@5")
	fmt.Printf("%-22s %12.3f\n", "with workpad context", with)
	fmt.Printf("%-22s %12.3f\n", "without context", without)
	fmt.Printf("improvement: %.2fx\n", with/maxf(without, 1e-9))
}

// e5: every Table 1 service exercised once, with latency.
func e5(users int) {
	p := buildPlatform(users)
	defer p.Close()
	uid := p.Users()[0]
	conf := p.Store().Conferences()[0]
	papers := p.Store().Papers()
	doc := core.DocPaper + papers[0]

	rows := []struct {
		service string
		fn      func() error
	}{
		{"concept-map bootstrap (via refresh)", func() error { return p.Refresh() }},
		{"peer recommendation", func() error { _, err := p.RecommendPeers(uid, 5); return err }},
		{"locate similar peers (explain)", func() error { _, err := p.Explain(uid, p.Users()[1]); return err }},
		{"send request/reply (connect)", func() error {
			a, b := p.Users()[2], p.Users()[3]
			if p.Connected(a, b) {
				return nil
			}
			return p.Connect(a, b)
		}},
		{"context search", func() error { _, err := p.SearchWithContext(uid, "graph partitioning", 5); return err }},
		{"rank resources by context", func() error { _, err := p.RecommendResources(uid, 5, true); return err }},
		{"relationship discovery+explain", func() error { _, err := p.Explain(uid, p.Users()[4]); return err }},
		{"community discovery", func() error { _, err := p.Communities(); return err }},
		{"summary previews (snippets)", func() error { _, err := p.Preview(uid, doc, 2); return err }},
		{"update digest (AlphaSum)", func() error { _, err := p.UpdateDigest(uid, 5); return err }},
		{"activity history search", func() error { _ = p.Store().EventsByActor(uid); return nil }},
		{"session suggestion", func() error { _, err := p.SuggestSessions(uid, conf, 3); return err }},
	}
	fmt.Printf("%-36s %12s %6s\n", "service (Table 1)", "latency", "ok")
	for _, r := range rows {
		var err error
		d := timeIt(func() { err = r.fn() })
		status := "yes"
		if err != nil {
			status = "ERR: " + err.Error()
		}
		fmt.Printf("%-36s %12v %6s\n", r.service, d, status)
	}
}

// e6: SCENT sketched monitoring vs structure recomputation baselines.
// The honest baseline from the SCENT paper is recomputing a tensor
// decomposition per epoch; exact Frobenius diffing is shown too.
func e6(_ int) {
	shape := []int{64, 64, 16}
	changeAt := map[int]bool{20: true, 35: true}
	stream, deltas := tensor.SyntheticStreamWithDeltas(11, shape, 50, 3000, changeAt)

	fmt.Printf("%-12s %14s %10s %10s %10s\n", "method", "time", "detected", "missed", "false+")

	var cpRes []tensor.StreamResult
	cpTime := timeIt(func() {
		var err error
		cpRes, err = tensor.MonitorDecomposition(stream, 5, 10, &tensor.Detector{})
		if err != nil {
			log.Fatal(err)
		}
	})
	det, miss, fp := score(cpRes, changeAt)
	fmt.Printf("%-12s %14v %10d %10d %10d\n", "cp-als(r=5)", cpTime, det, miss, fp)

	var exactRes []tensor.StreamResult
	exactTime := timeIt(func() {
		var err error
		exactRes, err = tensor.MonitorExact(stream, &tensor.Detector{})
		if err != nil {
			log.Fatal(err)
		}
	})
	det, miss, fp = score(exactRes, changeAt)
	fmt.Printf("%-12s %14v %10d %10d %10d\n", "exact-frob", exactTime, det, miss, fp)

	for _, m := range []int{16, 64, 256} {
		sk, err := tensor.NewSketcher(m, 3, shape...)
		if err != nil {
			log.Fatal(err)
		}
		var res []tensor.StreamResult
		d := timeIt(func() {
			res, err = tensor.MonitorSketched(sk, stream, &tensor.Detector{})
			if err != nil {
				log.Fatal(err)
			}
		})
		det, miss, fp := score(res, changeAt)
		fmt.Printf("%-12s %14v %10d %10d %10d\n", fmt.Sprintf("sketch-%d", m), d, det, miss, fp)
	}
	// The streaming fast path: descriptors maintained from deltas only,
	// O(m) per cell update — SCENT's headline complexity.
	for _, m := range []int{16, 64} {
		sk, err := tensor.NewSketcher(m, 3, shape...)
		if err != nil {
			log.Fatal(err)
		}
		var res []tensor.StreamResult
		d := timeIt(func() {
			res, err = tensor.MonitorIncremental(sk, deltas, &tensor.Detector{})
			if err != nil {
				log.Fatal(err)
			}
		})
		det, miss, fp := score(res, changeAt)
		fmt.Printf("%-12s %14v %10d %10d %10d\n", fmt.Sprintf("sketch-inc-%d", m), d, det, miss, fp)
	}
	fmt.Println("shape: incremental sketches detect the planted changes orders of magnitude cheaper than per-epoch structure recomputation")
}

func score(res []tensor.StreamResult, planted map[int]bool) (det, miss, fp int) {
	found := map[int]bool{}
	for _, r := range res {
		if r.Change {
			if planted[r.Epoch] {
				det++
				found[r.Epoch] = true
			} else {
				fp++
			}
		}
	}
	for e := range planted {
		if !found[e] {
			miss++
		}
	}
	return det, miss, fp
}

// e7: INI index vs online diffusion queries.
func e7(_ int) {
	fmt.Printf("%-8s %12s %10s %14s %14s %9s\n",
		"nodes", "build-time", "idx-size", "indexed-q", "online-q", "speedup")
	for _, n := range []int{200, 500, 1000} {
		g := randomDiffGraph(5, n, 6*n)
		var idx *diffusion.Index
		build := timeIt(func() {
			var err error
			idx, err = diffusion.BuildIndex(g, 0.05)
			if err != nil {
				log.Fatal(err)
			}
		})
		const queries = 500
		rng := rand.New(rand.NewSource(9))
		srcs := make([]graph.NodeID, queries)
		for i := range srcs {
			srcs[i] = graph.NodeID(rng.Intn(n))
		}
		tIdx := timeIt(func() {
			for _, s := range srcs {
				idx.TopK(s, 10)
			}
		})
		tOnline := timeIt(func() {
			for _, s := range srcs {
				if _, err := diffusion.TopKOnline(g, s, 10, 0.05); err != nil {
					log.Fatal(err)
				}
			}
		})
		fmt.Printf("%-8d %12v %10d %14v %14v %8.1fx\n",
			n, build, idx.Size(), tIdx/queries, tOnline/queries,
			float64(tOnline)/maxf(float64(tIdx), 1))
	}
	// Ablation (DESIGN.md §5): the truncation threshold trades index
	// size against how much of the diffusion each lookup covers.
	fmt.Printf("\nepsilon sweep (500 nodes):\n%-10s %12s %10s\n", "epsilon", "build-time", "idx-size")
	g := randomDiffGraph(5, 500, 3000)
	for _, eps := range []float64{0.3, 0.1, 0.05, 0.02} {
		var idx *diffusion.Index
		build := timeIt(func() {
			var err error
			idx, err = diffusion.BuildIndex(g, eps)
			if err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-10.2f %12v %10d\n", eps, build, idx.Size())
	}
}

func randomDiffGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithCapacity(n)
	for i := 0; i < n; i++ {
		g.EnsureNode(fmt.Sprintf("n%d", i), "user")
	}
	for i := 0; i < m; i++ {
		a := graph.NodeID(rng.Intn(n))
		b := graph.NodeID(rng.Intn(n))
		if a != b {
			_ = g.AddEdge(a, b, "e", 0.2+0.7*rng.Float64())
		}
	}
	return g
}

// e8: R2DF best-first ranked paths vs exhaustive enumeration, over both
// graph size (fixed maxLen=4) and path-length bound (fixed 60 nodes).
// Best-first terminates after k results; enumeration is exponential in
// the length bound.
func e8(_ int) {
	runOne := func(n, maxLen, queries int) (tR, tN time.Duration, agree string) {
		st := rdf.NewStore()
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 8*n; i++ {
			s := fmt.Sprintf("n%d", rng.Intn(n))
			o := fmt.Sprintf("n%d", rng.Intn(n))
			if s == o {
				continue
			}
			_ = st.Add(rdf.Triple{Subject: s, Predicate: "rel", Object: o, Weight: 0.1 + 0.9*rng.Float64()})
		}
		var ranked, naive []rdf.RankedPath
		tRanked := timeIt(func() {
			for q := 0; q < queries; q++ {
				ranked = st.RankedPaths("n0", fmt.Sprintf("n%d", n-1), 5, rdf.PathOptions{MaxLength: maxLen})
			}
		})
		tNaive := timeIt(func() {
			for q := 0; q < queries; q++ {
				naive = st.AllPathsNaive("n0", fmt.Sprintf("n%d", n-1), 5, maxLen, false)
			}
		})
		agree = "yes"
		if len(ranked) > 0 && len(naive) > 0 {
			if diff := ranked[0].Score - naive[0].Score; diff > 1e-9 || diff < -1e-9 {
				agree = "NO"
			}
		} else if len(ranked) != len(naive) {
			agree = "NO"
		}
		return tRanked / time.Duration(queries), tNaive / time.Duration(queries), agree
	}

	fmt.Printf("%-8s %8s %14s %14s %9s %10s\n", "nodes", "maxlen", "ranked", "naive", "speedup", "agree")
	for _, n := range []int{30, 60, 120} {
		tR, tN, agree := runOne(n, 4, 20)
		fmt.Printf("%-8d %8d %14v %14v %8.1fx %10s\n", n, 4, tR, tN,
			float64(tN)/maxf(float64(tR), 1), agree)
	}
	for _, maxLen := range []int{5, 6} {
		tR, tN, agree := runOne(60, maxLen, 3)
		fmt.Printf("%-8d %8d %14v %14v %8.1fx %10s\n", 60, maxLen, tR, tN,
			float64(tN)/maxf(float64(tR), 1), agree)
	}
}

// e9: AlphaSum loss/latency across budgets.
func e9(users int) {
	p := buildPlatform(users)
	defer p.Close()
	// Build an activity table from the real event stream.
	tab := &summarize.Table{Columns: []string{"verb", "topic", "affil"}}
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	affil := map[string]string{}
	for _, u := range ds.Users {
		affil[u.ID] = u.Affiliation
	}
	for _, ev := range p.Store().EventsSince(0, 0) {
		topic := "other"
		if t, ok := ds.TopicOfUser[ev.Actor]; ok {
			topic = workload.Topics[t].Name
		}
		tab.Rows = append(tab.Rows, []string{ev.Verb, topic, affil[ev.Actor]})
	}
	s := summarize.NewSummarizer(tab.Columns, benchHierarchies())
	fmt.Printf("rows=%d\n", len(tab.Rows))
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "budget", "greedy-loss", "greedy-time", "opt-loss", "opt-time")
	for _, budget := range []int{2, 4, 8, 16} {
		var gs, os *summarize.Summary
		tg := timeIt(func() {
			var err error
			gs, err = s.Greedy(tab, budget)
			if err != nil {
				log.Fatal(err)
			}
		})
		to := timeIt(func() {
			var err error
			os, err = s.Optimal(tab, budget)
			if err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-8d %12.4f %12v %12.4f %12v\n", budget, gs.Loss, tg, os.Loss, to)
	}
}

// e10: collaborative filtering vs popularity baseline.
func e10(users int) {
	p := buildPlatform(users)
	defer p.Close()
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	hit := func(recs []core.CFRecommendation, topic int) float64 {
		if len(recs) == 0 {
			return 0
		}
		hits := 0
		for _, r := range recs {
			id := strings.TrimPrefix(strings.TrimPrefix(r.DocID, core.DocPaper), core.DocPresentation)
			t, ok := ds.TopicOfPaper[id]
			if !ok {
				if pr, err := p.Store().Presentation(id); err == nil {
					t, ok = ds.TopicOfPaper[pr.PaperID], true
				}
			}
			if ok && t == topic {
				hits++
			}
		}
		return float64(hits) / float64(len(recs))
	}
	var cfP, popP float64
	n := 0
	var cfTime time.Duration
	for _, u := range p.Users() {
		start := time.Now()
		cf := eng.RecommendByCF(u, 5)
		cfTime += time.Since(start)
		if len(cf) == 0 {
			continue
		}
		pop := eng.RecommendByPopularity(u, 5)
		cfP += hit(cf, ds.TopicOfUser[u])
		popP += hit(pop, ds.TopicOfUser[u])
		n++
	}
	fmt.Printf("%-14s %14s %14s\n", "method", "precision@5", "mean-latency")
	fmt.Printf("%-14s %14.3f %14v\n", "user-based CF", cfP/float64(n), cfTime/time.Duration(maxi(n, 1)))
	fmt.Printf("%-14s %14.3f %14s\n", "popularity", popP/float64(n), "-")
	fmt.Printf("lift: %.2fx over %d users\n", (cfP/float64(n))/maxf(popP/float64(n), 1e-9), n)
}

// e11: concept-map bootstrapping throughput + planted-topic purity.
func e11(_ int) {
	fmt.Printf("%-8s %12s %10s %10s\n", "docs", "time", "concepts", "purity")
	for _, nd := range []int{40, 80, 160} {
		ds := workload.Generate(workload.Config{Seed: 21, Users: 40,
			SessionsPerConf: 8, PapersPerSess: maxi(nd/32, 1)})
		var docs []string
		for _, p := range ds.Papers {
			docs = append(docs, p.Title+". "+p.Abstract)
		}
		if len(docs) > nd {
			docs = docs[:nd]
		}
		start := time.Now()
		cm, err := conceptmap.Bootstrap(docs, conceptmap.BootstrapOptions{MaxConcepts: 60})
		d := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		// Purity: fraction of top-20 concepts that are planted topic terms.
		vocab := map[string]bool{}
		for _, t := range workload.Topics {
			for _, term := range t.Terms {
				vocab[term] = true
			}
		}
		top := cm.Concepts()
		if len(top) > 20 {
			top = top[:20]
		}
		hits := 0
		for _, c := range top {
			if vocab[c.Term] {
				hits++
			}
		}
		fmt.Printf("%-8d %12v %10d %9.0f%%\n", len(docs), d, cm.Len(),
			100*float64(hits)/maxf(float64(len(top)), 1))
	}
}

// e12: snippet extraction latency + relevance vs random baseline.
func e12(users int) {
	p := buildPlatform(users)
	defer p.Close()
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	uid := p.Users()[0]
	papers := p.Store().Papers()
	ctx := eng.ContextVector(uid)
	rng := rand.New(rand.NewSource(3))

	var relCtx, relRand float64
	var total time.Duration
	n := 0
	for _, pid := range papers {
		doc := core.DocPaper + pid
		text, err := eng.Index().Text(doc)
		if err != nil {
			continue
		}
		start := time.Now()
		snips, err := eng.Preview(uid, doc, 1)
		total += time.Since(start)
		if err != nil || len(snips) == 0 {
			continue
		}
		relCtx += textindex.TermFrequency(snips[0].Text).Cosine(ctx)
		sents := textindex.SplitSentences(text)
		if len(sents) > 0 {
			relRand += textindex.TermFrequency(sents[rng.Intn(len(sents))]).Cosine(ctx)
		}
		n++
	}
	fmt.Printf("docs=%d mean-latency=%v\n", n, total/time.Duration(maxi(n, 1)))
	fmt.Printf("%-22s %10.4f\n", "context-aware snippet", relCtx/maxf(float64(n), 1))
	fmt.Printf("%-22s %10.4f\n", "random sentence", relRand/maxf(float64(n), 1))
}

// benchHierarchies builds the value lattices for the E9 activity table:
// verbs group into interaction classes, topics into research areas, and
// affiliations into regions — giving the summarizer real generalization
// levels to trade off.
func benchHierarchies() map[string]*summarize.Hierarchy {
	mustH := func(parents map[string]string) *summarize.Hierarchy {
		h, err := summarize.NewHierarchy(parents)
		if err != nil {
			log.Fatal(err)
		}
		return h
	}
	verbs := mustH(map[string]string{
		"question": "discussion", "answer": "discussion", "comment": "discussion",
		"checkin": "presence", "connect": "networking", "follow": "networking",
		"upload": "content", "browse": "content",
		"discussion": summarize.Root, "presence": summarize.Root,
		"networking": summarize.Root, "content": summarize.Root,
	})
	topics := mustH(map[string]string{
		"graphs": "analytics", "tensors": "analytics", "mining": "analytics",
		"query": "systems", "storage": "systems",
		"social": "web", "text": "web", "rdf": "web", "other": "web",
		"analytics": summarize.Root, "systems": summarize.Root, "web": summarize.Root,
	})
	affils := mustH(map[string]string{
		"ASU": "americas", "CMU": "americas",
		"UniTo": "europe", "MPI": "europe", "EPFL": "europe",
		"NUS":      "asia",
		"americas": summarize.Root, "europe": summarize.Root, "asia": summarize.Root,
	})
	return map[string]*summarize.Hierarchy{"verb": verbs, "topic": topics, "affil": affils}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

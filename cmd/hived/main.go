// Command hived serves the Hive platform over HTTP (the Figure 1
// surface).
//
// Usage:
//
//	hived [-addr :8080] [-data DIR] [-seed users] [-compact-interval 30s]
//	      [-shards N] [-workers N] [-timeout 30s]
//	      [-max-inflight N] [-qps N] [-quiet]
//	      [-pprof ADDR]
//	      [-cluster "self=URL,peers=URL;URL,lease=DIR[,ttl=2s]"]
//	      [-quorum K] [-ack-timeout 5s] [-journal-retention N]
//
// The API is served under /api/v1 (typed DTOs, cursor pagination,
// structured errors, conditional knowledge GETs, POST /api/v1/batch
// bulk ingest — see API.md).
//
// With -seed N, a synthetic conference workload of N users is generated
// and loaded at startup so the API has data to serve. Writes become
// visible to the knowledge services immediately: each mutation's change
// events fold into the serving snapshot as an incremental delta before
// the request returns. With -compact-interval D, a background loop runs
// a full rebuild — the *compaction* that folds the delta overlay into a
// fresh base and refreshes the evidence graphs — every D while one is
// due; rebuilds fan the derivation stages out across -workers goroutines
// and swap the snapshot atomically, so requests keep being served from
// the previous snapshot for the whole rebuild. A compaction can also be
// requested over HTTP: POST /api/v1/admin/refresh (async; add ?wait=true
// to block until the swap), and GET /api/v1/healthz reports the serving
// snapshot's generation, age, staleness, overlay size, pending events,
// delta latency, and the node's replication role and lag.
//
// Replication: a durable node (-data) journals every change batch and
// serves it at GET /api/v1/replication/events.
//
// -cluster joins an elected replica set: the node holds a lease in the
// shared lease directory, the holder leads (accepts writes, stamps its
// leadership epoch into every journaled batch), everyone else follows
// it, and when the leader dies its lease lapses and a peer promotes
// itself — replaying its local journal tail before accepting writes.
// The flag value is comma-separated key=value pairs:
//
//	self=URL    this node's advertised base URL (required)
//	peers=U;V   the other members' base URLs, ';'-separated
//	lease=DIR   shared lease directory all members can reach (required)
//	ttl=2s      lease time-to-live (failover detection horizon)
//
// Cluster mode requires -data (an elected node must be able to lead,
// and leading requires a journal). GET /api/v1/cluster reports the
// node's view of the set.
//
// Durability: by default a write is acknowledged once journaled on the
// leader (async replication). -quorum K holds every write response until
// K followers confirm the write applied at the current epoch — acks
// piggyback on the replication long-poll, and the resulting cluster
// commit index (the highest sequence a quorum acknowledged) is persisted
// beside the journal and reported by /api/v1/healthz and
// /api/v1/cluster. A write that cannot collect its quorum within
// -ack-timeout fails with 503 quorum_unavailable (the write stays
// journaled and replicates when followers return). Keep -timeout above
// -ack-timeout or the blunt middleware timeout fires first.
//
// A follower serves the full read API with observable lag and rejects
// writes with the not_leader error envelope naming the leader.
// -journal-retention bounds how many closed journal segments the node
// keeps (default 8 × 4MiB): followers that fall further behind
// re-bootstrap from the snapshot automatically, and a restart replays at
// most that much journal past the store's checkpoint. (The static -follow
// flag from the pre-election era was removed after its deprecation
// release; a two-node -cluster replaces it.)
//
// -shards N partitions the write path: the process runs N independent
// shards (own store, journal, change stream and delta pipeline), routes
// every write to the shard owning the responsible user (FNV-1a of the
// owner ID), and answers reads by scatter-gather with exact k-way
// merging — search results are bit-identical to a one-shard node over
// the same data. The default, one shard, is the same backend with
// nothing to route or merge; its store sits directly under -data. The
// shard count is fixed for the life of a data dir (more than one is
// recorded in DIR/shards.json; reopening with a different -shards
// fails). GET /api/v1/cluster and /api/v1/healthz report the shard map.
// More than one shard excludes -cluster for now: per-shard replication
// is a follow-up.
//
// -timeout, -max-inflight and -qps wire the server's operational
// limits (0 disables each); -quiet drops the per-request access log
// (status, request ID and resolved shard on each line).
//
// Observability: GET /metrics serves the process-wide registry in
// Prometheus text exposition — request counts and latency histograms
// per route, delta-apply / compaction / journal / replication / quorum
// / election instruments, and per-shard state gauges — and GET
// /api/v1/debug/traces serves the slowest recent requests with their
// per-stage timings (see API.md, "Observability"). Both ride outside
// the QPS and in-flight caps so a shedding server can still be
// scraped. No flag turns them off.
//
// With -pprof ADDR (off by default), net/http/pprof profiling handlers
// are exposed on a separate listener under /debug/pprof/, kept off the
// public API address so profiling never rides the serving middleware
// (and can be bound to localhost while the API is public).
//
// SIGINT or SIGTERM stops the node cleanly: the listener closes,
// in-flight requests get up to shutdownGrace to finish, then every
// shard closes (compaction loop, replication and journal) and the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hive"
	"hive/internal/election"
	"hive/internal/server"
	"hive/internal/workload"
)

// shutdownGrace bounds how long a stop waits for in-flight requests. It
// matches the default quorum ack timeout, so a held write still gets its
// answer; a follower's parked replication long-poll is cut at the bound.
const shutdownGrace = 5 * time.Second

// clusterSpec is the parsed -cluster flag.
type clusterSpec struct {
	self     string
	peers    []string
	leaseDir string
	ttl      time.Duration
}

// parseClusterFlag parses "self=URL,peers=URL;URL,lease=DIR[,ttl=2s]".
// Peers use ';' as the separator because ',' separates the pairs.
func parseClusterFlag(s string) (clusterSpec, error) {
	spec := clusterSpec{ttl: election.DefaultLeaseTTL}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("-cluster: %q is not key=value", part)
		}
		switch key {
		case "self":
			spec.self = val
		case "peers":
			for _, p := range strings.Split(val, ";") {
				if p = strings.TrimSpace(p); p != "" {
					spec.peers = append(spec.peers, p)
				}
			}
		case "lease":
			spec.leaseDir = val
		case "ttl":
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("-cluster: bad ttl %q: %w", val, err)
			}
			spec.ttl = d
		default:
			return spec, fmt.Errorf("-cluster: unknown key %q (want self, peers, lease, ttl)", key)
		}
	}
	if spec.self == "" {
		return spec, fmt.Errorf("-cluster: self=URL is required")
	}
	if spec.leaseDir == "" {
		return spec, fmt.Errorf("-cluster: lease=DIR is required (a shared directory all members can reach)")
	}
	return spec, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "storage directory (empty = in-memory)")
	seed := flag.Int("seed", 0, "generate a synthetic workload with this many users")
	compactInterval := flag.Duration("compact-interval", 30*time.Second,
		"background compaction (full rebuild) interval, run while due (0 = disabled)")
	shards := flag.Int("shards", 1,
		"partition the write path across this many in-process shards (more than 1 excludes -cluster)")
	cluster := flag.String("cluster", "",
		"join an elected replica set: self=URL,peers=URL;URL,lease=DIR[,ttl=2s] (requires -data)")
	quorum := flag.Int("quorum", 0,
		"follower acks each write must collect before the response returns (0 = async durability; requires -cluster)")
	ackTimeout := flag.Duration("ack-timeout", 0,
		"bounded wait for quorum write acks before a 503 quorum_unavailable (0 = 5s default)")
	journalRetention := flag.Int("journal-retention", 0,
		"closed change-journal segments to retain; they also bound restart replay (0 = default 8)")
	workers := flag.Int("workers", 0, "engine rebuild parallelism (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request time budget (0 = unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent requests (0 = uncapped)")
	qps := flag.Float64("qps", 0, "global request rate limit (0 = unlimited)")
	quiet := flag.Bool("quiet", false, "disable the per-request access log")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on this separate address (e.g. localhost:6060; empty = disabled)")
	flag.Parse()

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	opts := hive.Options{
		Dir:           *data,
		Workers:       *workers,
		JournalRetain: *journalRetention,
	}
	var leaseDir string
	if *cluster != "" {
		if *data == "" {
			log.Fatalf("-cluster requires -data: an elected node must be able to lead, and leading requires a journal")
		}
		spec, err := parseClusterFlag(*cluster)
		if err != nil {
			log.Fatalf("%v", err)
		}
		leaseDir = spec.leaseDir
		lease, err := election.NewFileLease(election.LeaseConfig{
			Dir:  spec.leaseDir,
			Self: spec.self,
			TTL:  spec.ttl,
		})
		if err != nil {
			log.Fatalf("cluster lease: %v", err)
		}
		opts.Cluster = &hive.ClusterConfig{
			SelfURL:      spec.self,
			Peers:        spec.peers,
			Election:     lease,
			QuorumWrites: *quorum,
			AckTimeout:   *ackTimeout,
		}
	} else if *quorum > 0 {
		log.Fatalf("-quorum requires -cluster: only a leader with followers can collect acks")
	}

	sh, err := hive.OpenSharded(*shards, opts)
	if err != nil {
		log.Fatalf("open platform: %v", err)
	}

	if *cluster != "" {
		// Role and state are election-driven: the node joined fenced, the
		// lease decides whether it leads or tails a peer. No local seeding
		// or eager build — a follower's state comes from the leader, and a
		// promotion folds the journal tail in before opening writes.
		st := sh.Shard(0).State()
		log.Printf("cluster member %s (peers %v, lease %s, role %s, epoch %d)",
			opts.Cluster.SelfURL, opts.Cluster.Peers, leaseDir, st.Role, st.Epoch)
		if *seed > 0 {
			log.Printf("warning: -seed ignored in cluster mode (state replicates from the elected leader)")
		}
	} else {
		if *seed > 0 {
			ds := workload.Generate(workload.Config{Seed: 42, Users: *seed})
			// Seeding runs in-process before serving, through the routed
			// write path so every entity lands on its owning shard. One
			// batch per shard: Batched nests the per-shard store batches,
			// so the whole load is a single snapshot invalidation on each.
			if err := sh.Batched(func() error { return ds.LoadRouted(sh) }); err != nil {
				log.Fatalf("load workload: %v", err)
			}
			log.Printf("seeded %d users, %d papers, %d sessions across %d shard(s)",
				len(ds.Users), len(ds.Papers), len(ds.Sessions), *shards)
		}
		if err := sh.Refresh(); err != nil {
			log.Fatalf("build knowledge engine: %v", err)
		}
		log.Printf("knowledge engine ready on %d shard(s) (generation %d)", *shards, sh.Generation())
	}
	if *compactInterval > 0 {
		sh.AutoRefresh(*compactInterval)
		log.Printf("compaction loop every %v on each shard (runs while due)", *compactInterval)
	}

	cfg := server.Config{
		Timeout:     *timeout,
		MaxInFlight: *maxInflight,
		QPS:         *qps,
	}
	if !*quiet {
		cfg.AccessLog = log.Default()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: server.NewSharded(sh, cfg)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("hived listening on %s (%d shard(s), API v1 at /api/v1)", *addr, *shards)
	select {
	case err := <-serveErr:
		sh.Close()
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal now takes the default action
	log.Printf("shutting down (grace %v)", shutdownGrace)
	graceCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(graceCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := sh.Close(); err != nil {
		log.Fatalf("close platform: %v", err)
	}
	log.Printf("stopped")
}

package hive

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"hive/api"
	"hive/client"
)

// State reads the shard's whole state at once — serving snapshot, delta
// pipeline, replication role and position, ack table — as the one
// per-shard record healthz, the cluster endpoint and the /metrics state
// gauges render. The snapshot, the follower and the ack table are each
// loaded once, so the fields that derive from one of them agree.
func (p *Platform) State() api.ShardStatus {
	st := api.ShardStatus{ID: p.shardID}

	eng := p.current.Load()
	gap := p.gapSeq.Load() != 0
	st.Generation = p.gen.Load()
	st.Stale = eng == nil || gap
	st.DeltasApplied = p.deltasApplied.Load()
	st.Compactions = p.compactions.Load()
	st.LastDeltaUS = time.Duration(p.lastDeltaNs.Load()).Microseconds()
	st.CompactionDue = gap
	if eng != nil {
		ds := eng.DeltaStats()
		st.Snapshot = true
		st.BuiltAt = eng.BuiltAt().UTC().Format(time.RFC3339Nano)
		st.BuildMS = eng.BuildDuration().Milliseconds()
		st.AgeMS = time.Since(eng.BuiltAt()).Milliseconds()
		st.FrozenDocs = eng.Frozen().Len()
		st.OverlayDocs, st.Tombstones, st.GraphPending = ds.OverlayDocs, ds.Tombstones, ds.GraphPending
		st.CompactionDue = gap || overPolicy(ds)
	}
	if box := p.lastErr.Load(); box != nil && box.err != nil {
		st.LastRefreshError = box.err.Error()
	}

	rh := &st.ReplicationHealth
	rh.Self = p.selfURL
	role := p.role.Load()
	rh.Role = api.RoleLeader
	if role == roleFollower {
		rh.Role = api.RoleFollower
	}
	rh.Epoch = p.store.Epoch()
	rh.JournalOldest, rh.JournalTail, rh.JournalSegments = p.store.JournalStats()
	if err := p.store.JournalError(); err != nil {
		rh.JournalError = err.Error()
	}
	rh.CommitIndex = p.store.CommitIndex()
	rh.QuorumWrites = p.quorumK
	rh.LeaderURL = p.leaderHint()
	rh.Promotions = p.promotions.Load()
	rh.Deferrals = p.deferrals.Load()
	if f := p.followP.Load(); f != nil {
		if role != roleLeader {
			rh.LeaderURL = f.url
		}
		rh.AppliedSeq = f.applied.Load()
		rh.LeaderTail = f.leaderTail.Load()
		if rh.LeaderTail > rh.AppliedSeq {
			rh.LagEvents = rh.LeaderTail - rh.AppliedSeq
		}
		rh.Bootstraps = f.bootstraps.Load()
		rh.Fenced = f.fenced.Load()
		if box := f.lastErr.Load(); box != nil && box.err != nil {
			rh.LastReplicationError = box.err.Error()
		}
	}
	p.ackMu.Lock()
	for url, a := range p.acks {
		rh.FollowerAcks = append(rh.FollowerAcks, api.FollowerAckStatus{
			URL: url, AppliedSeq: a.applied, Epoch: a.epoch, AgeMS: time.Since(a.at).Milliseconds(),
		})
	}
	p.ackMu.Unlock()
	sort.Slice(rh.FollowerAcks, func(i, j int) bool { return rh.FollowerAcks[i].URL < rh.FollowerAcks[j].URL })
	return st
}

// peerProbeTimeout bounds one round of peer probes: an unreachable peer
// can stall neither a promotion nor the cluster status report.
const peerProbeTimeout = 750 * time.Millisecond

// peerProbeClient carries every peer probe — the promotion gate's and
// the cluster endpoint's — over its own pooled transport, so repeated
// probes of the same peers reuse kept-alive connections and never share
// http.DefaultTransport's state.
var peerProbeClient = &http.Client{
	Timeout: peerProbeTimeout,
	Transport: &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
	},
}

// ProbePeers asks every configured peer for its healthz, concurrently
// and within one probe budget, and returns one row per peer in
// configuration order: the peer's replication block when it answered,
// the error when it did not, and the round trip either way — for a dead
// peer, the budget burned finding out. Empty outside cluster mode.
func (p *Platform) ProbePeers(ctx context.Context) []api.PeerStatus {
	out := make([]api.PeerStatus, len(p.peers))
	ctx, cancel := context.WithTimeout(ctx, peerProbeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, url := range p.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			h, err := client.New(url, client.WithHTTPClient(peerProbeClient)).Healthz(ctx)
			out[i] = api.PeerStatus{URL: url, Alive: err == nil, ReplicationHealth: h.Replication}
			if err != nil {
				out[i].Error = err.Error()
			}
			out[i].ProbeMS = float64(time.Since(start).Microseconds()) / 1e3
		}()
	}
	wg.Wait()
	return out
}

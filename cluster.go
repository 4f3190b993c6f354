package hive

// Elected-cluster mode: the election layer (internal/election) decides
// which node leads; this file turns its outcomes into live role
// transitions on a running platform.
//
// Safety comes from epoch fencing, not from the lease: every journaled
// batch carries the leadership term it was written under, a follower
// rejects batches behind its adopted term (a deposed leader's writes
// are fenced, never silently applied), and a node refuses to bootstrap
// from a snapshot behind its term. The lease only decides *liveness* —
// who should be accepting writes right now — so a transiently
// split-brained lease costs availability at worst, never divergence.
//
// Transitions run on a dedicated goroutine fed by a latest-wins
// channel: elector callbacks must return promptly (a blocked callback
// would stall lease renewal), while a transition may run a full rebuild
// or a snapshot re-bootstrap.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"hive/internal/election"
)

// ClusterConfig wires a platform into an elected replica set: the
// election decides which member leads and everyone else tails it.
type ClusterConfig struct {
	// SelfURL is this node's advertised base URL: what the lease names
	// as holder, what peers tail, and what rejected writers are
	// redirected to when this node leads.
	SelfURL string
	// Peers lists the other members' base URLs. They are not dialed for
	// election (the Election backend owns that); they feed the cluster
	// status endpoint and client-side leader re-resolution.
	Peers []string
	// Election decides the leader. Use election.NewFileLease for the
	// shared-directory backend, or any other Elector implementation.
	Election election.Elector

	// QuorumWrites opts into synchronous durability: when leading, every
	// write response is held until this many followers have confirmed
	// the write applied at the current epoch (acks piggyback on the
	// replication long-poll). 0 keeps the async default — the write is
	// acknowledged once journaled locally. A write that cannot collect
	// its quorum within AckTimeout fails with *QuorumUnavailableError
	// (HTTP: 503 quorum_unavailable); the data stays journaled and
	// replicates when followers return.
	QuorumWrites int
	// AckTimeout bounds how long a quorum write waits for follower acks
	// (0 = DefaultAckTimeout). Degradation under it is typed, never a
	// hang: the handler timeout middleware must stay above it or the
	// envelope turns into a blunt timeout.
	AckTimeout time.Duration
	// ReplicationTransport, when set, replaces the HTTP transport of the
	// follower's replication client. It exists as the fault-injection
	// seam (internal/faultnet) for tests; nil uses the default transport.
	ReplicationTransport http.RoundTripper
}

// Platform roles. The zero value is neither, so a role read before Open
// finished assigning one fails the writable check closed (writes need
// an explicit leader grant).
const (
	roleLeader int32 = iota + 1
	roleFollower
)

// startCluster validates the config, joins as a write-fenced follower
// and starts the elector; the first election outcome assigns the real
// role. Called from Open.
func (p *Platform) startCluster(cfg ClusterConfig) error {
	if cfg.SelfURL == "" {
		return errors.New("hive: ClusterConfig.SelfURL is required")
	}
	if cfg.Election == nil {
		return errors.New("hive: ClusterConfig.Election is required")
	}
	if !p.store.Journaled() {
		return errors.New("hive: cluster mode requires a durable store (Options.Dir): an elected node must be able to lead, and an in-memory node has no journal for followers to tail")
	}
	if cfg.QuorumWrites < 0 {
		return errors.New("hive: ClusterConfig.QuorumWrites must be >= 0")
	}
	if cfg.QuorumWrites > len(cfg.Peers) {
		return fmt.Errorf("hive: ClusterConfig.QuorumWrites %d exceeds the %d configured peers — no write could ever commit", cfg.QuorumWrites, len(cfg.Peers))
	}
	p.selfURL = cfg.SelfURL
	p.peers = append([]string(nil), cfg.Peers...)
	p.elector = cfg.Election
	p.quorumK = cfg.QuorumWrites
	p.ackTimeout = cfg.AckTimeout
	if p.ackTimeout <= 0 {
		p.ackTimeout = DefaultAckTimeout
	}
	p.replTransport = cfg.ReplicationTransport
	p.acks = map[string]followerAck{}
	p.ackCh = make(chan struct{})
	p.role.Store(roleFollower) // fenced until elected
	p.transCh = make(chan election.State, 1)
	p.transStop = make(chan struct{})
	p.transDone = make(chan struct{})
	go p.transitionLoop()
	// The recovered epoch floors the election: any term this node claims
	// outranks every batch its journal ever held.
	p.elector.Start(p.store.Epoch(), p.onElection)
	return nil
}

// stopCluster stops the elector and drains the transition loop. After
// it returns no transition is in flight, so Close can tear the rest
// down safely. No-op outside cluster mode.
func (p *Platform) stopCluster() {
	if p.elector == nil {
		return
	}
	p.elector.Stop()
	select {
	case <-p.transStop:
		// already stopped
	default:
		close(p.transStop)
	}
	<-p.transDone
}

// onElection is the elector's notify hook. It must not block: role
// transitions can run rebuilds and re-bootstraps, so outcomes go
// through a one-slot latest-wins channel — a burst of flapping
// outcomes collapses to the newest, which is the only one that matters.
func (p *Platform) onElection(st election.State) {
	for {
		select {
		case p.transCh <- st:
			return
		case <-p.transCh:
			// Displace the stale queued outcome and retry.
		}
	}
}

// transitionLoop applies election outcomes one at a time.
func (p *Platform) transitionLoop() {
	defer close(p.transDone)
	for {
		select {
		case <-p.transStop:
			return
		case st := <-p.transCh:
			p.applyElection(st)
		}
	}
}

// applyElection turns one election outcome into a role transition.
//
// Promotions are epoch-gated: a promotion at a term below the store's
// is stale news from a contested election round and is ignored —
// accepting it would journal new writes under an already-fenced term.
// Demotions always apply: stepping down is always safe, and refusing to
// would keep accepting writes nobody replicates.
func (p *Platform) applyElection(st election.State) {
	if st.Role == election.Leader {
		p.promote(st.Epoch)
		return
	}
	p.demoteTo(st.Epoch, st.Leader)
}

// promote transitions this node to leader at the given term: stop
// tailing, adopt the term, fold the local journal tail into the serving
// snapshot, then open the write path. The store already holds every
// batch the old leader shipped us (ApplyReplica journals before it
// acknowledges) and folded each batch as it applied, so "replay the
// journal tail" means a full build only when no snapshot serves yet or a
// batch was skipped — not re-reading the journal.
func (p *Platform) promote(epoch uint64) {
	if epoch < p.store.Epoch() {
		return // stale promotion from a lost election round
	}
	if p.role.Load() == roleLeader {
		// Renewal at the same or a later term.
		p.store.SetEpoch(epoch)
		p.setLeaderHint(p.selfURL)
		return
	}
	// Caught-up gate: before a fresh promotion opens the write path,
	// compare histories with every reachable peer. A peer holding
	// sequences beyond ours at this term would lose its surplus if we
	// led — and if any of that surplus was quorum-acknowledged, losing
	// it breaks the durability promise quorum writes made. Defer to it:
	// yield the lease and stay fenced, for at most maxPromotionDeferrals
	// consecutive rounds (an unclaiming peer must not leave the cluster
	// leaderless).
	if p.deferStreak < maxPromotionDeferrals {
		if p.moreCaughtUpPeer() {
			p.deferPromotion()
			return
		}
	}
	p.deferStreak = 0
	// A new term's quorum must be proven by new acks; stale bookkeeping
	// from an earlier stint as leader must not vouch for it.
	p.resetAcks()
	// Order matters: the tail loop must be fully stopped before the
	// term changes hands, so no replicated batch races the promotion.
	p.stopFollowing()
	p.store.SetEpoch(epoch)
	if err := p.ApplyDeltas(); err != nil {
		// The store is still authoritative and lastErr carries the
		// failure to healthz; leadership proceeds — refusing it would
		// leave the cluster leaderless over a snapshot build hiccup.
		_ = err
	}
	p.setLeaderHint(p.selfURL)
	p.role.Store(roleLeader)
	p.promotions.Add(1)
	mPromotions.Inc()
}

// demoteTo transitions this node to follower of leaderURL at the given
// term. The write fence drops first — before any slow re-bootstrap —
// so a deposed leader stops journaling doomed batches immediately.
func (p *Platform) demoteTo(epoch uint64, leaderURL string) {
	wasLeader := p.role.Load() == roleLeader
	p.role.Store(roleFollower)
	if wasLeader {
		mDemotions.Inc()
		// Quorum waiters parked on our deposed term must not hang until
		// their deadline on a channel no ack will ever close again.
		p.resetAcks()
	}
	if leaderURL != "" && leaderURL != p.selfURL {
		// Another node actually leads: the deferrals worked (or the race
		// resolved itself), so the next lost-leader round starts with a
		// fresh deferral budget. The no-leader interludes *between* our
		// own yielded claims keep the streak, or the cap could never bind.
		p.deferStreak = 0
	}
	epochAdvanced := epoch > p.store.Epoch()
	p.store.SetEpoch(epoch)
	p.setLeaderHint(leaderURL)

	cur := p.followP.Load()
	switch {
	case leaderURL == "" || leaderURL == p.selfURL:
		// No (other) leader known — an unresolved election round. Stop
		// tailing whoever we tailed and wait, fenced, for the next
		// outcome.
		p.stopFollowing()
	case cur != nil && cur.url == leaderURL && !epochAdvanced && !wasLeader:
		// Already tailing the right leader at the right term.
	default:
		// New leader, new term, or we just stepped down. A deposed
		// leader may hold journaled batches the new term never saw
		// (fenced on every peer), so rejoining always re-bootstraps
		// from the new leader's snapshot; a plain leader change at the
		// same term re-bootstraps too — cheap, and it sidesteps every
		// cross-leader tail-alignment edge case.
		p.stopFollowing()
		p.startFollowerAsync(leaderURL)
	}
}

// setLeaderHint records the leader URL handed to rejected writers and
// the cluster status endpoint.
func (p *Platform) setLeaderHint(url string) { p.leaderP.Store(&url) }

// leaderHint returns the current leader URL ("" while unknown).
func (p *Platform) leaderHint() string {
	if s := p.leaderP.Load(); s != nil {
		return *s
	}
	return ""
}

// Epoch returns the leadership term the node has adopted (0 only on
// unmanaged in-memory standalone platforms).
func (p *Platform) Epoch() uint64 { return p.store.Epoch() }

// StaleEpochError rejects a replication request asserting a newer term
// than this node has adopted: the requester is fenced off from a stale
// node and must re-resolve the leader. The HTTP layer maps it to the
// stale_epoch error code.
type StaleEpochError struct {
	// Requested is the term the caller asserted; Current is this
	// node's term.
	Requested, Current uint64
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("hive: node is at epoch %d, behind requested epoch %d; re-resolve the leader", e.Current, e.Requested)
}

package hive

// Quorum-acknowledged writes. With ClusterConfig.QuorumWrites = k > 0,
// a leading platform holds every write response until k followers have
// confirmed the write's change sequence applied at the current epoch.
// There is no extra ack RPC: followers report progress by stamping
// their applied sequence onto the replication long-poll they already
// run (?applied=<seq>&self=<url> on GET /api/v1/replication/events),
// so the ack path is exactly as alive as the data path it vouches for.
//
// The leader folds those reports into a *cluster commit index* — the
// highest sequence at least k followers have acknowledged at the
// current epoch — persisted beside the journal (journal/commit.idx) and
// republished to followers on every poll response, so every member
// carries the durability watermark and a promoted follower starts from
// it. Waiting is bounded: a write that cannot collect its quorum within
// AckTimeout fails with *QuorumUnavailableError (HTTP 503
// quorum_unavailable, details.acked/details.needed) instead of
// hanging; the write itself stays journaled and replicates when the
// followers return — the error reports unproven durability, it does not
// roll anything back.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hive/internal/election"
)

const (
	// DefaultAckTimeout bounds a quorum write's wait for follower acks
	// when ClusterConfig.AckTimeout is zero.
	DefaultAckTimeout = 5 * time.Second
	// ackRecheck is the waiter's safety-net poll: commit-index advances
	// normally wake waiters through ackCh, and the periodic re-check
	// catches any advance that raced a waiter between its sequence load
	// and its park — the leader-side retry loop of ack collection.
	ackRecheck = 50 * time.Millisecond
	// maxPromotionDeferrals bounds how many consecutive elections this
	// node yields to a more caught-up peer that then fails to claim.
	// Past it the node leads anyway: availability beats the optimization.
	maxPromotionDeferrals = 3
)

// followerAck is one follower's most recent progress report.
type followerAck struct {
	applied uint64    // highest change sequence confirmed applied
	epoch   uint64    // the term the follower asserted when reporting
	at      time.Time // when the report arrived (staleness in healthz)
}

// QuorumUnavailableError reports a quorum write that timed out
// collecting follower acks: only Acked of the Needed followers
// confirmed the write's sequence within the ack timeout. The write is
// journaled on the leader and will replicate when followers return —
// the error means durability is unproven, not that state was rolled
// back. The HTTP layer maps it to 503 quorum_unavailable.
type QuorumUnavailableError struct {
	Seq    uint64 // change sequence the write waited on
	Acked  int    // followers that had confirmed Seq at the deadline
	Needed int    // the configured quorum (ClusterConfig.QuorumWrites)
}

func (e *QuorumUnavailableError) Error() string {
	return fmt.Sprintf("hive: quorum unavailable: %d/%d follower acks for seq %d within the ack timeout (write journaled, durability unproven)",
		e.Acked, e.Needed, e.Seq)
}

// RecordFollowerAck folds one follower progress report into the ack
// table and advances the cluster commit index when a quorum forms. The
// server calls it for every replication poll that carries ?applied. A
// report only counts toward quorum when the follower asserted this
// leader's current epoch — an old-term ack may vouch for history the
// current term fenced away.
func (p *Platform) RecordFollowerAck(self string, applied, epoch uint64) {
	if self == "" || self == p.selfURL || p.elector == nil {
		return
	}
	if p.role.Load() != roleLeader {
		return
	}
	p.ackMu.Lock()
	defer p.ackMu.Unlock()
	prev := p.acks[self]
	if applied < prev.applied && epoch <= prev.epoch {
		applied = prev.applied // per-follower progress is monotone within a term
	}
	p.acks[self] = followerAck{applied: applied, epoch: epoch, at: time.Now()}
	if p.quorumK <= 0 {
		return
	}
	// Quorum ack check: the k-th largest sequence confirmed by followers
	// at the current term is, by definition, acknowledged by at least k
	// of them — only that bound may advance the durable commit index.
	quorumSeq := p.kthAckedLocked(p.quorumK, p.store.Epoch())
	if quorumSeq <= p.store.CommitIndex() {
		return
	}
	if err := p.store.SetCommitIndex(quorumSeq); err != nil {
		return // surfaced via JournalError-style health on the next poll
	}
	// Wake quorum waiters: close-and-replace, every parked writer
	// re-checks the new index.
	close(p.ackCh)
	p.ackCh = make(chan struct{})
}

// kthAckedLocked returns the k-th largest applied sequence among
// followers whose latest report asserted epoch (0 when fewer than k
// have). Caller holds ackMu.
func (p *Platform) kthAckedLocked(k int, epoch uint64) uint64 {
	seqs := make([]uint64, 0, len(p.acks))
	for _, a := range p.acks {
		if a.epoch == epoch {
			seqs = append(seqs, a.applied)
		}
	}
	if len(seqs) < k {
		return 0
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs[k-1]
}

// resetAcks clears the ack table across role or term changes: a new
// term's quorum must be proven by new reports, never inherited from
// bookkeeping of a term that may have been fenced. Parked waiters are
// woken so they re-check against the (unchanged) commit index and run
// out their deadline instead of sleeping on a channel nobody closes.
func (p *Platform) resetAcks() {
	p.ackMu.Lock()
	p.acks = map[string]followerAck{}
	if p.ackCh != nil {
		close(p.ackCh)
		p.ackCh = make(chan struct{})
	}
	p.ackMu.Unlock()
}

// waitQuorum holds a just-applied write until the cluster commit index
// covers the store's current change sequence — every event the write
// produced, possibly over-waiting for a concurrent neighbor's, which
// only strengthens the guarantee. Bounded by the ack timeout; on expiry
// the caller gets a typed QuorumUnavailableError carrying the live
// acked/needed counts. No-op in async mode (k = 0) and on followers.
func (p *Platform) waitQuorum() error {
	if p.quorumK <= 0 {
		return nil
	}
	seq := p.store.ChangeSeq()
	defer mQuorumAckWaitSeconds.ObserveSince(time.Now())
	deadline := time.NewTimer(p.ackTimeout)
	defer deadline.Stop()
	recheck := time.NewTicker(ackRecheck)
	defer recheck.Stop()
	for {
		if p.store.CommitIndex() >= seq {
			return nil
		}
		p.ackMu.Lock()
		ch := p.ackCh
		p.ackMu.Unlock()
		if p.store.CommitIndex() >= seq {
			return nil
		}
		select {
		case <-ch:
		case <-recheck.C:
		case <-deadline.C:
			p.ackMu.Lock()
			acked := 0
			epoch := p.store.Epoch()
			for _, a := range p.acks {
				if a.epoch == epoch && a.applied >= seq {
					acked++
				}
			}
			p.ackMu.Unlock()
			return &QuorumUnavailableError{Seq: seq, Acked: acked, Needed: p.quorumK}
		}
	}
}

// CommitIndex returns the cluster commit index: the highest change
// sequence a quorum of followers has acknowledged applying, as
// persisted beside the journal. Zero before any quorum write committed
// (notably: always zero in async mode on a fresh journal).
func (p *Platform) CommitIndex() uint64 { return p.store.CommitIndex() }

// --- Caught-up promotion gate ---------------------------------------------------

// moreCaughtUpPeer probes every peer (ProbePeers) and reports whether
// one holds history strictly beyond this node's: a journal tail or
// applied sequence past our own. Only peers at or above this node's
// current term count: a resurrected deposed leader may hold a longer
// journal whose surplus is fenced — deferring to it would resurrect
// exactly the writes fencing dropped. Unreachable peers are skipped; the
// gate is an optimization, never a liveness dependency.
func (p *Platform) moreCaughtUpPeer() bool {
	local := p.store.ChangeSeq()
	if _, tail, _ := p.store.JournalStats(); tail > local {
		local = tail
	}
	epoch := p.store.Epoch()
	for _, ps := range p.ProbePeers(context.Background()) {
		if ps.Alive && ps.Epoch >= epoch && max(ps.JournalTail, ps.AppliedSeq) > local {
			return true
		}
	}
	return false
}

// deferPromotion steps aside from a won election in favor of a more
// caught-up peer: yield the lease (when the elector supports it) so the
// peer claims inside the next cycle, and stay a fenced follower. The
// elector's epoch floor already covers the yielded term, so the next
// claim — by anyone — goes strictly above it.
func (p *Platform) deferPromotion() {
	p.deferStreak++
	p.deferrals.Add(1)
	mDeferrals.Inc()
	if y, ok := p.elector.(election.Yielder); ok {
		y.Yield()
	}
}

package hive

// Leader/follower replication: the follower side.
//
// A durable platform journals every change batch (typed events + the
// raw kv write image) through internal/journal; the server exposes that
// journal as GET /api/v1/replication/events plus a full-state snapshot
// endpoint. An elected follower (Options.Cluster) bootstraps from the
// snapshot, then tails the journal: each batch's kv image applies verbatim — the follower's
// store converges byte-for-byte with the leader's — and the batch's
// events flow through the ordinary onChange → ApplyDelta path, so the
// follower's serving snapshot is maintained by exactly the machinery a
// leader uses for its own writes. Followers serve the full read API
// with bounded, observable lag and reject writes with a typed
// NotLeaderError naming the leader and its term.
//
// Epoch fencing: every poll asserts the follower's adopted term, so a
// deposed leader (stuck at an older term) answers stale_epoch instead
// of feeding doomed batches — and if one slips through anyway (the
// follower adopted a newer term while the poll was out) the store
// fences it (social.ErrStaleEpoch). Fenced batches never trigger a
// re-sync: bootstrapping from a deposed leader would silently regress
// the follower, so the loop backs off and waits for the elector to
// retarget it at the real leader. An older-term batch in a feed at the
// follower's own term is the current leader's history, not a deposed
// leader's write: the follower re-syncs from that leader's snapshot.
// Only a leader serves snapshots, so a bootstrap never imports a
// shorter history from a node that is not (or not yet) leading.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"hive/api"
	"hive/client"
	"hive/internal/kvstore"
	"hive/internal/social"
)

// NotLeaderError is returned by mutation methods on a follower: writes
// must go to the leader it names. The HTTP layer maps it to the stable
// not_leader error code with the leader URL and the current term in the
// error details; cluster-aware clients follow the hint automatically.
type NotLeaderError struct {
	// Leader is the leader's base URL ("" while an election is
	// unresolved — retry after re-resolving via healthz).
	Leader string
	// Epoch is the term this node has adopted; a client seeing a hint
	// at a lower term than one it already followed is looking at a
	// stale node.
	Epoch uint64
	// Shard identifies which shard leader rejected the write on a
	// sharded deployment (0 on unsharded platforms).
	Shard int
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "hive: not the leader and no leader is known (election unresolved); retry"
	}
	return fmt.Sprintf("hive: not the leader; send writes to %s", e.Leader)
}

// Follower tuning. The long-poll wait keeps propagation sub-second
// without hot-polling; the batch cap bounds per-iteration memory.
const (
	followPollWait  = 20 * time.Second
	followBatchMax  = 256
	followBackoffLo = 100 * time.Millisecond
	followBackoffHi = 5 * time.Second
)

// follower holds the tail-loop state of a following platform. Each
// leader change builds a fresh follower; observability reads go through
// Platform.followP. Cancelling ctx stops the loop, which closes done.
type follower struct {
	url    string
	c      *client.Client
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	applied    atomic.Uint64 // last leader sequence folded into the local store
	leaderTail atomic.Uint64 // leader journal tail at the most recent poll
	lastErr    atomic.Pointer[replErr]
	bootstraps atomic.Uint64 // snapshot bootstraps since Open (re-syncs after compaction/holes)
	fenced     atomic.Uint64 // stale-epoch batches/feeds rejected (deposed-leader writes)
}

// replErr boxes a tail-loop outcome for atomic storage.
type replErr struct{ err error }

func (p *Platform) newFollower(url string) *follower {
	ctx, cancel := context.WithCancel(context.Background())
	var opts []client.Option
	if p.replTransport != nil {
		// The fault-injection seam: tests wrap the replication client in
		// an internal/faultnet transport to drop, delay or partition the
		// follower's traffic without touching the network stack.
		opts = append(opts, client.WithHTTPClient(&http.Client{Transport: p.replTransport}))
	}
	return &follower{
		url:    url,
		c:      client.New(url, opts...),
		cancel: cancel,
		ctx:    ctx,
		done:   make(chan struct{}),
	}
}

// startFollowerAsync enters (or re-enters) follower mode without
// blocking: the tail loop owns the bootstrap, retrying with backoff
// until it succeeds or the follower is stopped, because the new leader
// may itself still be promoting.
func (p *Platform) startFollowerAsync(url string) {
	f := p.newFollower(url)
	p.followP.Store(f)
	go p.followLoop(f)
}

// stopFollowing cancels the tail loop, waits for it to exit and clears
// the follower slot.
func (p *Platform) stopFollowing() {
	f := p.followP.Load()
	if f == nil {
		return
	}
	f.cancel()
	<-f.done
	p.followP.CompareAndSwap(f, nil)
}

// bootstrapFollower replaces the local store with the leader's full
// snapshot and positions the tail at its watermark. A snapshot from a
// stale term is refused: importing it would regress the follower to a
// deposed leader's world — the exact rewrite fencing exists to prevent.
func (p *Platform) bootstrapFollower(f *follower) error {
	snap, err := f.c.ReplicationSnapshot(f.ctx)
	if err != nil {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	if cur := p.store.Epoch(); snap.Epoch != 0 && snap.Epoch < cur {
		f.fenced.Add(1)
		return fmt.Errorf("refusing snapshot from %s at stale epoch %d (ours is %d): %w", f.url, snap.Epoch, cur, social.ErrStaleEpoch)
	}
	entries := make([]kvstore.Entry, len(snap.Entries))
	for i, e := range snap.Entries {
		entries[i] = kvstore.Entry{Key: e.Key, Val: e.Value}
	}
	if err := p.store.ImportReplicaSnapshot(snap.Seq, entries); err != nil {
		return fmt.Errorf("import snapshot: %w", err)
	}
	p.store.SetEpoch(snap.Epoch)
	f.applied.Store(p.store.ChangeSeq())
	f.bootstraps.Add(1)
	return nil
}

// followLoop bootstraps from the leader's snapshot, then tails its
// journal until stopped, reconnecting with exponential backoff and
// re-bootstrapping when the leader compacted past our position,
// regressed, or moved to a newer term (or a journal hole is detected).
// Stale-term feeds are fenced, never re-synced from.
func (p *Platform) followLoop(f *follower) {
	defer close(f.done)
	booted, failures := false, 0
	for {
		if f.ctx.Err() != nil {
			return
		}
		if failures > 0 {
			select {
			case <-time.After(backoffDelay(failures)):
			case <-f.ctx.Done():
				return
			}
		}

		// The poll doubles as the ack channel: the piggybacked report says
		// how far this follower has folded the leader's journal (what a
		// quorum-writing leader counts before releasing held responses)
		// and which commit index it has persisted (so the leader releases
		// the long-poll early when the watermark moved).
		from := f.applied.Load()
		var ev api.ReplicationEvents
		var err error
		if booted {
			ack := &client.ReplAck{Self: p.selfURL, Applied: from, Commit: p.store.CommitIndex()}
			pollStart := time.Now()
			ev, err = f.c.ReplicationEvents(f.ctx, from, followBatchMax, followPollWait, p.store.Epoch(), ack)
			mReplicationPollSeconds.ObserveSince(pollStart)
		}
		// resync names why the tail cannot continue and the follower must
		// (re-)bootstrap from the leader's snapshot ("" while it can).
		var resync string
		switch {
		case !booted:
			// The first bootstrap re-syncs even when local state exists:
			// a node rejoining after a leader change may hold journal
			// batches from a fenced term.
			resync = "bootstrap from " + f.url
		case api.IsCode(err, api.CodeCompacted):
			// Fell behind the leader's retention horizon: tailing can
			// never catch up.
			resync = "re-bootstrap after compaction"
		case api.IsCode(err, api.CodeStaleEpoch):
			// The polled node's term is behind ours: it is a deposed
			// leader (or a lagging peer). Nothing it serves is safe to
			// apply or bootstrap from — back off and wait for the
			// elector to retarget us at the real leader.
			f.fenced.Add(1)
			f.lastErr.Store(&replErr{fmt.Errorf("fenced: %s is behind our epoch %d (deposed leader?): %w", f.url, p.store.Epoch(), err)})
			failures++
			continue
		case err != nil:
			if f.ctx.Err() != nil {
				return
			}
			f.lastErr.Store(&replErr{fmt.Errorf("poll leader: %w", err)})
			failures++
			continue
		case ev.Epoch > p.store.Epoch():
			// The leader moved to a newer term than we adopted. Per the
			// compatibility rule (accept N, re-bootstrap on N+1) the
			// tail is not trustworthy across terms; the snapshot adopts
			// the new term.
			resync = fmt.Sprintf("re-bootstrap onto epoch %d", ev.Epoch)
		case ev.Tail < from:
			// A leader whose journal tail is *behind* our applied sequence
			// is not the leader we replicated from (repurposed data dir,
			// restored backup, misconfigured peer set): tailing would
			// silently serve unrelated state while reporting zero lag.
			f.leaderTail.Store(ev.Tail)
			resync = fmt.Sprintf("re-bootstrap after leader regression (tail %d < applied %d)", ev.Tail, from)
		default:
			f.leaderTail.Store(ev.Tail)
			fencedBatch := false
			for _, rb := range ev.Batches {
				applied := f.applied.Load()
				if rb.Last <= applied {
					continue // overlap from a record spanning the resume point
				}
				if rb.First > applied+1 {
					// A hole in the feed (journal gap): events between were
					// lost; only a snapshot restores the missing data.
					resync = "re-bootstrap after feed hole"
					break
				}
				if aerr := p.store.ApplyReplica(rb); aerr != nil {
					f.lastErr.Store(&replErr{fmt.Errorf("apply batch [%d,%d]: %w", rb.First, rb.Last, aerr)})
					if errors.Is(aerr, social.ErrStaleEpoch) && ev.Epoch < p.store.Epoch() {
						// Deposed-leader writes (we adopted a newer term
						// while the poll was out): drop them, and do NOT
						// re-sync — this node's snapshot is just as stale.
						f.fenced.Add(1)
						fencedBatch = true
						break
					}
					// An older-term batch in a feed at our own term is the
					// current leader's history, which its snapshot carries:
					// re-sync rather than skip acknowledged data.
					resync = "re-bootstrap after feed hole"
					break
				}
				f.applied.Store(rb.Last)
			}
			if fencedBatch {
				failures++
				continue
			}
		}
		if resync != "" {
			if berr := p.resyncFollower(f); berr != nil {
				if f.ctx.Err() != nil {
					return
				}
				f.lastErr.Store(&replErr{fmt.Errorf("%s: %w", resync, berr)})
				failures++
				continue
			}
			booted = true
		}
		if c := ev.Commit; c > 0 {
			// Adopt the leader-published commit index, capped at our own
			// applied point: sequences beyond it are quorum-acknowledged
			// cluster-wide but not yet held here, and a commit index must
			// never vouch for data its node doesn't have. Regressions are
			// ignored by the store, so a stale poll can't move it back.
			if applied := f.applied.Load(); c > applied {
				c = applied
			}
			//lint:allow epochcheck the quorum ack check ran on the leader; followers adopt its published commit index verbatim
			_ = p.store.SetCommitIndex(c)
		}
		f.lastErr.Store(&replErr{})
		failures = 0
	}
}

// resyncFollower re-bootstraps from the snapshot and rebuilds the
// serving snapshot (imported state has no event trail to delta from).
// A compaction already building read the store before the import, so
// its replay log ends: it builds again rather than swap, and the
// Refresh that joins it returns the imported state.
func (p *Platform) resyncFollower(f *follower) error {
	if err := p.bootstrapFollower(f); err != nil {
		return err
	}
	p.foldMu.Lock()
	p.building, p.sinceBuild = false, nil
	p.foldMu.Unlock()
	return p.Refresh()
}

// backoffDelay is the reconnect schedule: 100ms doubling to a 5s cap.
func backoffDelay(failures int) time.Duration {
	d := followBackoffLo << uint(failures-1)
	if d > followBackoffHi || d <= 0 {
		return followBackoffHi
	}
	return d
}

// writable gates every mutation (Platform.mutate): followers reject
// writes with a typed error naming the leader and term, so clients can
// redirect.
func (p *Platform) writable() error {
	if p.role.Load() != roleLeader {
		return &NotLeaderError{Leader: p.leaderHint(), Epoch: p.store.Epoch(), Shard: p.shardID}
	}
	return nil
}

// --- Leader-side feed ------------------------------------------------------------

// ErrNoJournal is returned by ReplicationFeed on in-memory platforms:
// without a durable change journal there is nothing for followers to
// tail.
var ErrNoJournal = errors.New("hive: platform has no change journal (in-memory store); followers need -data")

// ReplicationFeed reads up to max journaled change batches after
// sequence `from`, long-polling up to wait for new data when the caller
// is caught up. It returns the batches plus the current journal tail.
// journal.ErrCompacted (mapped to the compacted API code by the server)
// means the range was dropped by retention. Served on any journaled
// node; followers tail the leader.
//
// pollerCommit is the caller's persisted cluster commit index: a parked
// long-poll is released early when this node's commit index advances
// past it, so followers adopt a fresh durability watermark within a
// round-trip of the quorum forming instead of a full poll period later.
// Callers that don't track a commit index pass ^uint64(0) to opt out.
func (p *Platform) ReplicationFeed(ctx context.Context, from uint64, max int, wait time.Duration, pollerCommit uint64) ([]social.ReplicationBatch, uint64, error) {
	if !p.store.Journaled() {
		return nil, 0, ErrNoJournal
	}
	batches, err := p.store.ChangesSince(from, max)
	if err != nil {
		return nil, 0, err
	}
	_, tail, _ := p.store.JournalStats()
	// Long-poll only when genuinely caught up (tail == from). A tail
	// *behind* from means the caller replicated from someone else — it
	// needs that signal immediately (its regression detector triggers a
	// re-bootstrap), not after the wait expires.
	if len(batches) == 0 && wait > 0 && tail >= from {
		waitCtx, cancel := context.WithTimeout(ctx, wait)
		if p.quorumK > 0 && p.store.CommitIndex() > pollerCommit {
			cancel() // the poller's watermark is already behind: answer now
		} else if p.quorumK > 0 {
			// Watch for a quorum forming while the poll is parked: the
			// commit-index advance is news the poller must carry even when
			// no new batches follow it (the batch that committed was
			// delivered on a previous poll).
			go func() {
				for {
					p.ackMu.Lock()
					ch := p.ackCh
					p.ackMu.Unlock()
					if p.store.CommitIndex() > pollerCommit {
						cancel()
						return
					}
					select {
					case <-ch:
					case <-waitCtx.Done():
						return
					}
				}
			}()
		}
		if p.store.WaitChanges(waitCtx.Done(), from) {
			batches, err = p.store.ChangesSince(from, max)
		}
		cancel()
		if err != nil {
			return nil, 0, err
		}
		_, tail, _ = p.store.JournalStats()
	}
	return batches, tail, nil
}

// ReplicationSnapshot captures the full bootstrap image: the store's
// entire kv state and the change-sequence watermark it covers. Only a
// leader serves one (a *NotLeaderError otherwise): a follower may hold
// less than the leader it tails, and an election winner that deferred
// holds less than the peer it yielded to, so a bootstrap from either
// would replace a more caught-up node's state — acknowledged writes
// included — with a shorter history.
func (p *Platform) ReplicationSnapshot() (seq uint64, entries []kvstore.Entry, err error) {
	if !p.store.Journaled() {
		return 0, nil, ErrNoJournal
	}
	if err := p.writable(); err != nil {
		return 0, nil, err
	}
	seq, entries = p.store.SnapshotForReplication()
	if entries == nil {
		return 0, nil, fmt.Errorf("hive: no image at a journal position to serve (journal error: %v)", p.store.JournalError())
	}
	return seq, entries, nil
}

// Package hive is the public API of the Hive Open Research Network
// Platform (Kim, Chen, Candan, Sapino — EDBT 2013): a conference-centric,
// cross-conference social platform for researchers with integrated
// knowledge services — context-aware search and previews, evidence-based
// peer discovery and explanation, collaborative recommendation, community
// discovery, and activity change monitoring. Every listed service is
// served by the /api/v1 REST API (internal/server, API.md); the library
// offers no service the API lacks.
//
// A Platform is one shard: the durable social store, its change journal
// and the MiNC knowledge engine kept current over it. Mutations (users,
// papers, check-ins, questions, workpads, ...) are visible to the
// knowledge services as soon as the write returns: the store emits typed
// change events and the platform folds them into the serving snapshot
// as an incremental delta (milliseconds, proportional to the write — not
// the corpus) before the mutation returns, under concurrent writers and
// during a compaction alike. Full rebuilds are demoted to *compaction*:
// they fold the accumulated overlay into a fresh base snapshot and
// refresh the evidence graphs, on the AutoRefresh cadence or an explicit
// Refresh, replaying at their swap the writes folded while they built.
//
// The services themselves — Table 1 of the paper — are declared once, on
// Sharded: N >= 1 Platforms behind an owner-hash router (shards.go). A
// Platform embeds the one-shard router of itself, so it has the same
// method set, and Open and OpenSharded(1, ...) answer every call through
// the same code.
//
//	p, _ := hive.Open(hive.Options{Dir: ""}) // in-memory
//	defer p.Close()
//	_ = p.RegisterUser(hive.User{ID: "zach", Name: "Zach"})
//	recs, _ := p.RecommendPeers("zach", 5)
package hive

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hive/internal/core"
	"hive/internal/election"
	"hive/internal/journal"
	"hive/internal/rdf"
	"hive/internal/social"
	"hive/internal/summarize"
	"hive/internal/tensor"
	"hive/internal/textindex"
)

// Re-exported domain types: the social layer's entities are the public
// vocabulary of the platform.
type (
	// User is a researcher profile.
	User = social.User
	// Conference is an event edition.
	Conference = social.Conference
	// Session is a technical session.
	Session = social.Session
	// Paper is a published or accepted paper.
	Paper = social.Paper
	// Presentation is uploaded slide/poster content.
	Presentation = social.Presentation
	// Question is a question about an entity.
	Question = social.Question
	// Answer replies to a question.
	Answer = social.Answer
	// Comment is free-form feedback on an entity.
	Comment = social.Comment
	// Workpad is the user's context-defining resource pad.
	Workpad = social.Workpad
	// WorkpadItem is one resource on a workpad.
	WorkpadItem = social.WorkpadItem
	// Event is one activity-stream entry.
	Event = social.Event
	// ChangeEvent is one typed entry of the store's change log.
	ChangeEvent = social.ChangeEvent

	// Evidence is one relationship evidence (Figure 2).
	Evidence = core.Evidence
	// Explanation is a full relationship explanation between two users.
	Explanation = core.Explanation
	// PeerRecommendation is a suggested contact with its justification.
	PeerRecommendation = core.PeerRecommendation
	// SessionSuggestion is a scored session suggestion.
	SessionSuggestion = core.SessionSuggestion
	// ResourceRecommendation is a suggested document.
	ResourceRecommendation = core.ResourceRecommendation
	// SearchResult is a scored document hit.
	SearchResult = core.SearchResult
	// Snippet is a context-extracted document fragment.
	Snippet = textindex.Snippet
	// Summary is a size-constrained update digest.
	Summary = summarize.Summary
	// ChangeResult reports activity change detection for one epoch.
	ChangeResult = tensor.StreamResult
	// DeltaStats summarizes a snapshot's incremental-maintenance state.
	DeltaStats = core.DeltaStats
)

// Workpad item kinds.
const (
	ItemUser         = social.ItemUser
	ItemPaper        = social.ItemPaper
	ItemPresentation = social.ItemPresentation
	ItemSession      = social.ItemSession
	ItemQuestion     = social.ItemQuestion
)

// Document namespaces used in search results and previews.
const (
	DocPaper        = core.DocPaper
	DocPresentation = core.DocPresentation
	DocQuestion     = core.DocQuestion
)

// Compaction policy and delta-pipeline bounds. A compaction is due once
// the serving snapshot has drifted past any of the first three from its
// last full build.
const (
	// maxOverlayDocs bounds the overlay-segment size.
	maxOverlayDocs = 256
	// maxTombstoneRatio bounds the dead fraction of the base segment.
	maxTombstoneRatio = 0.2
	// maxGraphPending bounds the applied events whose evidence-graph
	// effects (connections, co-attendance, Q&A edges, coauthorship)
	// await the next full build.
	maxGraphPending = 512
	// maxFoldEvents bounds the events of one delivered batch that a
	// write folds; a batch past it is skipped and closed by a full
	// rebuild instead (the bulk-load path, where a compaction beats
	// folding thousands of events).
	maxFoldEvents = 4096
)

// Options configures Open.
type Options struct {
	// Dir is the storage directory; empty means in-memory (non-durable).
	// Durable platforms journal every change batch under Dir/journal —
	// the feed replication followers tail; an in-memory platform cannot
	// lead a replica set.
	Dir string
	// Clock overrides the time source (tests, replay). Nil = wall clock.
	Clock func() time.Time
	// Workers bounds the parallelism of engine rebuilds (the number of
	// derivation stages built concurrently). Zero means GOMAXPROCS.
	Workers int

	// Cluster puts the platform in elected-cluster mode: the node's
	// role (leader or follower) is decided by Cluster.Election and
	// transitions live — see ClusterConfig. Requires a durable store
	// (Dir). For simple two-node read scaling, run a two-member set —
	// a manual elector pins the roles when a live election is overkill.
	Cluster *ClusterConfig
	// JournalRetain bounds how many closed journal segments are kept
	// (0 = default 8). Together with the journal's segment size it fixes
	// how far a disconnected follower may fall behind before it must
	// re-bootstrap from a snapshot, and how much journal a restart
	// replays past the store's checkpoint.
	JournalRetain int
}

// Platform is one shard of a Hive instance — a standalone instance is
// the one-shard case — owning a store, its journal, the delta pipeline,
// the serving snapshot and the replication role. Beyond the methods
// declared on it, a *Platform has every method of *Sharded — the
// mutations, entity reads and knowledge services — promoted from the
// one-shard router it embeds (godoc lists them under Sharded). The
// router's routing calls come along (ShardOf, ShardCount, Shards, Shard,
// EngineFor, Batched, FeedPage) and describe that one-shard view — on a
// shard of a larger deployment ShardCount is still 1 while ShardID is
// the shard's real position; route through the deployment's Sharded.
//
// The promoted services answer from the published snapshot and never
// wait on maintenance: every write folds its delta before it returns.
// The one exception is a batch of more than 4096 events (a bulk load):
// it is skipped, leaving the snapshot stale, and served once the
// compaction the write starts itself swaps in. Call Engine (or Refresh)
// first when the next read must see such a load.
//
// The knowledge engine is an immutable snapshot published through an
// atomic pointer: readers load the current snapshot without locking.
// Writes emit typed change events; the platform applies them to the
// serving snapshot as an incremental delta (structurally sharing
// everything the events did not touch) and swaps the pointer. Full
// rebuilds — compactions — run in the background on the AutoRefresh
// cadence and swap the same pointer once they have replayed the deltas
// folded while they built. Queries therefore never observe a
// half-built engine, and reads keep being served from the old snapshot
// for the entire rebuild.
type Platform struct {
	// The one-shard Sharded of this platform (set by Open, returned by
	// OneShard). Its methods are the platform's service surface; the
	// maintenance calls Platform declares itself shadow the router's.
	*router

	store   *social.Store
	workers int
	// shardID is this platform's position in a sharded deployment's
	// shard map (0 on standalone platforms). Set once by OpenSharded
	// before the platform is shared; stamped into NotLeaderError and
	// per-shard health so clients and operators can tell shard leaders
	// apart.
	shardID int

	current atomic.Pointer[core.Engine] // serving snapshot (nil until first build)
	gen     atomic.Uint64               // snapshot generation, bumped on every swap
	lastErr atomic.Pointer[refreshErr]  // outcome of the most recent maintenance run

	// The fold (onChange): one ApplyDelta per delivered batch. foldMu
	// serializes folds and a compaction's start and swap; while a
	// compaction builds, building is set and sinceBuild keeps every
	// event folded meanwhile for the swap to replay. gapSeq is the
	// highest change sequence a skipped batch carried (0: none); the
	// next compaction's swap clears it.
	foldMu     sync.Mutex
	building   bool
	sinceBuild []social.ChangeEvent
	gapSeq     atomic.Uint64

	deltasApplied atomic.Uint64 // delta swaps since Open
	compactions   atomic.Uint64 // full-build swaps since Open
	lastDeltaNs   atomic.Int64  // duration of the most recent delta apply

	flightMu sync.Mutex // guards flight and closed
	flight   *refreshFlight
	closed   bool

	autoMu   sync.Mutex // guards autoStop
	autoStop chan struct{}
	autoDone chan struct{}

	// Replication role state. role gates the write path (writable);
	// leaderP is the current leader hint handed to rejected writers;
	// followP is the active tail loop, nil while leading or between
	// leaders. In cluster mode the elector drives all three through
	// applyElection (cluster.go); a standalone platform leads from Open
	// on and never changes them. See replication.go.
	role    atomic.Int32
	leaderP atomic.Pointer[string]
	followP atomic.Pointer[follower]

	// Cluster mode state (nil/zero outside cluster mode).
	selfURL    string
	peers      []string
	elector    election.Elector
	transCh    chan election.State // latest-wins election outcomes
	transStop  chan struct{}
	transDone  chan struct{}
	promotions atomic.Uint64 // follower → leader transitions since Open

	// Quorum-write state (quorum.go). quorumK and ackTimeout are fixed
	// at Open; the ack map tracks, per follower URL, the highest change
	// sequence it confirmed applied (piggybacked on its replication
	// poll); ackCh is closed and replaced whenever the commit index
	// advances, waking writers parked in waitQuorum. replTransport is
	// the follower client's transport override (fault-injection seam).
	quorumK       int
	ackTimeout    time.Duration
	replTransport http.RoundTripper
	ackMu         sync.Mutex
	acks          map[string]followerAck
	ackCh         chan struct{}
	deferrals     atomic.Uint64 // promotions deferred to a more caught-up peer
	deferStreak   int           // consecutive deferrals; transition goroutine only
}

// refreshFlight coalesces concurrent compactions into one run.
type refreshFlight struct {
	done chan struct{}
	err  error
}

// refreshErr boxes a maintenance outcome for atomic storage (nil err on
// success).
type refreshErr struct{ err error }

// Open creates or opens a platform. With Options.Cluster set it opens
// in elected-cluster mode: the node joins as a write-fenced follower
// and assumes whichever role the election assigns, transitioning live
// afterwards. Without it the platform is a standalone leader.
func Open(opts Options) (*Platform, error) {
	st, err := social.OpenJournaled(opts.Dir, social.Clock(opts.Clock), journal.Options{Retain: opts.JournalRetain})
	if err != nil {
		return nil, err
	}
	p := &Platform{store: st, workers: opts.Workers}
	p.router = &router{shards: []*Platform{p}}
	// Every store write feeds the change log — including writes that
	// bypass the service methods and hit Store() directly. The
	// subscription folds each batch into the serving snapshot before
	// the write returns.
	// On a follower the same path fires when replicated batches are
	// folded in, so deltas flow identically on both roles.
	st.OnChange(p.onChange)
	switch {
	case opts.Cluster != nil:
		if err := p.startCluster(*opts.Cluster); err != nil {
			st.Close()
			return nil, err
		}
	default:
		// Standalone leader. A durable store that previously ran under
		// election keeps stamping its recovered term (so its batches
		// stay fenceable); a fresh one starts at term 1.
		if st.Journaled() && st.Epoch() == 0 {
			st.SetEpoch(1)
		}
		p.role.Store(roleLeader)
	}
	return p, nil
}

// ErrClosed is returned by refresh operations after Close.
var ErrClosed = errors.New("hive: platform closed")

// Close stops the elector and its transition loop (if any), the
// follower tail loop (if any) and auto-refresh, waits for any in-flight
// maintenance and releases the underlying storage. It is a quiescence
// point: once the closed mark is set no new rebuild can start, so after
// Close returns nothing reads the store anymore. A closing cluster
// leader does not resign; its lease lapses, taking the same handover
// path a crash would.
func (p *Platform) Close() error {
	p.stopCluster()
	p.stopFollowing()
	p.StopAutoRefresh()
	p.flightMu.Lock()
	p.closed = true
	f := p.flight
	p.flightMu.Unlock()
	if f != nil {
		<-f.done
	}
	return p.store.Close()
}

// Store exposes the raw social store for advanced callers.
func (p *Platform) Store() *social.Store { return p.store }

// onChange receives one coalesced change batch from the store and folds
// it into the serving snapshot before the mutation returns, under
// foldMu, so concurrent deliveries fold one after another. While a
// compaction builds, the batch is also kept for its swap to replay. A
// batch larger than maxFoldEvents (the bulk-load path) is not folded:
// it is recorded as a gap, and the write starts the compaction that
// closes it.
func (p *Platform) onChange(evs []social.ChangeEvent) {
	if len(evs) > maxFoldEvents {
		p.foldMu.Lock()
		p.skip(evs)
		p.foldMu.Unlock()
		p.closeGap()
		return
	}
	p.foldMu.Lock()
	if p.building {
		p.sinceBuild = append(p.sinceBuild, evs...)
	}
	whole := true
	if cur := p.current.Load(); cur != nil { // else the first build reads the store
		var next *core.Engine
		if next, whole = p.fold(cur, evs); next != cur {
			p.current.Store(next)
			p.gen.Add(1)
			p.deltasApplied.Add(1)
			mDeltasApplied.Inc()
			p.lastDeltaNs.Store(int64(next.DeltaStats().LastDeltaDur))
			p.lastErr.Store(&refreshErr{})
		}
	}
	p.foldMu.Unlock()
	if !whole {
		p.closeGap()
	}
}

// fold applies evs to eng in one ApplyDelta call and returns the
// result. With no events it returns eng itself, so a swap with nothing
// to replay adds no delta to its fresh base. A failing call leaves eng
// as it was and records the whole batch as a gap, and whole reports it.
// Called with foldMu held.
func (p *Platform) fold(eng *core.Engine, evs []social.ChangeEvent) (_ *core.Engine, whole bool) {
	if len(evs) == 0 {
		return eng, true
	}
	start := time.Now()
	next, err := (&core.Builder{Store: p.store, Workers: p.workers}).ApplyDelta(eng, evs)
	if err != nil {
		p.lastErr.Store(&refreshErr{err: err})
		p.skip(evs)
		return eng, false
	}
	mDeltaApplySeconds.ObserveSince(start)
	return next, true
}

// skip records evs as a gap: the serving snapshot goes without them
// until a compaction whose build began after them swaps in. A build
// running now may have read the store before them, so its replay log
// ends and it builds again instead of swapping. Called with foldMu held.
func (p *Platform) skip(evs []social.ChangeEvent) {
	gap := p.gapSeq.Load()
	for _, ev := range evs {
		gap = max(gap, ev.Seq)
	}
	p.gapSeq.Store(gap)
	p.building, p.sinceBuild = false, nil
}

// closeGap starts the compaction that closes a gap the caller just
// recorded, or joins the one in flight. Before the first snapshot there
// is nothing to close: the first read builds.
func (p *Platform) closeGap() {
	if p.current.Load() != nil {
		p.RefreshAsync()
	}
}

// Refresh runs a full rebuild — a compaction — in the calling goroutine
// and atomically swaps the result in: the overlay folds into a fresh
// base segment and every derived structure (evidence graphs,
// communities, concept map, knowledge base) refreshes. Readers are
// never blocked: they keep resolving the previous snapshot until the
// swap. Concurrent Refresh calls coalesce into a single rebuild, which
// builds again if a batch was skipped while it built: a Refresh that
// returns nil leaves no gap behind.
func (p *Platform) Refresh() error {
	f, started, err := p.beginFlight()
	if err != nil {
		return err
	}
	if started {
		return p.runFlight(f)
	}
	<-f.done
	return f.err
}

// RefreshAsync kicks a background compaction unless one is already in
// flight. It returns immediately; the new snapshot becomes visible
// atomically when the rebuild completes. The flight is registered
// before returning, so a subsequent Close waits for it.
func (p *Platform) RefreshAsync() {
	f, started, err := p.beginFlight()
	if err == nil && started {
		go func() { _ = p.runFlight(f) }()
	}
}

// ApplyDeltas makes the serving snapshot reflect every write that has
// returned. Writes fold their own events, so this compacts only when
// the snapshot is stale: there is none yet, or a batch was skipped.
func (p *Platform) ApplyDeltas() error {
	if !p.Stale() {
		return nil
	}
	return p.Refresh()
}

// beginFlight joins the compaction in flight or registers a new one.
// started reports ownership: the caller must run it via runFlight;
// otherwise it may wait on f.done and read f.err. After Close it
// returns ErrClosed and no flight.
func (p *Platform) beginFlight() (f *refreshFlight, started bool, err error) {
	p.flightMu.Lock()
	defer p.flightMu.Unlock()
	if p.closed {
		return nil, false, ErrClosed
	}
	if p.flight != nil {
		return p.flight, false, nil
	}
	f = &refreshFlight{done: make(chan struct{})}
	p.flight = f
	return f, true, nil
}

// runFlight executes the owned compaction and releases its waiters.
func (p *Platform) runFlight(f *refreshFlight) error {
	f.err = p.compact()
	p.flightMu.Lock()
	p.flight = nil
	p.flightMu.Unlock()
	close(f.done)
	return f.err
}

// compact builds a fresh snapshot from the store beside the serving
// one, then swaps it in under foldMu after replaying the events writes
// folded while it built, so the swap takes back none of them; however
// many there are, writes alone never make it build again. A gap
// recorded during the build ends that replay log (see skip): the build
// is dropped and another reads the store, which now holds the skipped
// batch. A swap therefore closes every gap, and Refresh returns once
// none is left.
func (p *Platform) compact() error {
	for {
		p.foldMu.Lock()
		p.building, p.sinceBuild = true, nil
		p.foldMu.Unlock()

		start := time.Now()
		eng, err := (&core.Builder{Store: p.store, Workers: p.workers}).Build()
		p.foldMu.Lock()
		whole, replay := p.building, p.sinceBuild
		p.building, p.sinceBuild = false, nil
		if err == nil && whole {
			if eng, whole = p.fold(eng, replay); whole {
				p.current.Store(eng)
				p.gapSeq.Store(0)
				p.gen.Add(1)
			}
		}
		p.foldMu.Unlock()
		if err != nil {
			p.lastErr.Store(&refreshErr{err: err})
			return err
		}
		if whole {
			p.lastErr.Store(&refreshErr{})
			p.compactions.Add(1)
			mCompactions.Inc()
			shard := strconv.Itoa(p.shardID)
			mSnapshotGraphBytes.With(shard).Set(float64(eng.GraphBytes()))
			mSnapshotVectorBytes.With(shard).Set(float64(eng.VectorBytes()))
			mCompactionSeconds.ObserveSince(start)
			for _, s := range eng.BuildStages() {
				mBuildStageSeconds.With(s.Name).ObserveDuration(s.Dur)
			}
			return nil
		}
		p.flightMu.Lock()
		closed := p.closed
		p.flightMu.Unlock()
		if closed {
			return ErrClosed
		}
	}
}

// Engine returns the serving snapshot once it reflects every write that
// has returned, compacting first if it is stale (ApplyDeltas) —
// normally a no-op, since writes fold their own deltas. The service
// methods do not wait: they answer from the published snapshot
// (serving), as Snapshot does.
func (p *Platform) Engine() (*core.Engine, error) {
	if err := p.ApplyDeltas(); err != nil {
		return nil, err
	}
	return p.current.Load(), nil
}

// Snapshot returns the currently serving engine snapshot without ever
// blocking on maintenance. It is nil until the first build completes
// and may be stale (check Stale); it is always fully built.
func (p *Platform) Snapshot() *core.Engine { return p.current.Load() }

// Stale reports whether the serving snapshot misses a write that has
// returned: there is no snapshot yet, or a batch was skipped (a gap)
// and the compaction that closes it has not swapped in. A snapshot with
// an applied delta overlay is *current*, not stale.
func (p *Platform) Stale() bool {
	return p.current.Load() == nil || p.gapSeq.Load() != 0
}

// CompactionDue reports whether the serving snapshot needs a
// compaction: a gap awaits one, or the snapshot drifted past the
// compaction policy — the overlay grew too large, too much of the base
// is tombstoned, or too many graph-affecting events await integration.
// Serving continues either way; AutoRefresh (or an admin refresh) runs
// the compaction, except after a gap, whose write has already started
// it.
func (p *Platform) CompactionDue() bool {
	if p.gapSeq.Load() != 0 {
		return true
	}
	// No snapshot: nothing to compact; Stale covers the first build.
	eng := p.current.Load()
	return eng != nil && overPolicy(eng.DeltaStats())
}

// overPolicy reports whether a snapshot's overlay drifted past the
// compaction policy.
func overPolicy(ds core.DeltaStats) bool {
	return ds.OverlayDocs > maxOverlayDocs ||
		ds.TombstoneRatio > maxTombstoneRatio ||
		ds.GraphPending > maxGraphPending
}

// Generation returns the number of snapshot swaps so far (deltas and
// compactions both count: any swap may change query results).
func (p *Platform) Generation() uint64 { return p.gen.Load() }

// DeltasApplied returns the number of delta snapshot swaps since Open.
func (p *Platform) DeltasApplied() uint64 { return p.deltasApplied.Load() }

// AutoRefresh starts a background loop that every interval runs a
// compaction if one is due or the snapshot is stale (tick), keeping
// overlay size and evidence-graph drift bounded without any rebuild
// cost on the read or write paths. It
// replaces a previously started loop; a non-positive interval just
// stops the current loop (auto-refresh disabled). Stop it with
// StopAutoRefresh (Close does too).
func (p *Platform) AutoRefresh(interval time.Duration) {
	if interval <= 0 {
		p.StopAutoRefresh()
		return
	}
	// A loop started after Close would have nothing to stop it and
	// would tick against a closed store forever.
	p.flightMu.Lock()
	closed := p.closed
	p.flightMu.Unlock()
	if closed {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	// Atomically swap the new loop in while taking ownership of the
	// old one, so concurrent AutoRefresh calls each stop exactly the
	// loop they displaced and none leaks.
	p.autoMu.Lock()
	prevStop, prevDone := p.autoStop, p.autoDone
	p.autoStop, p.autoDone = stop, done
	p.autoMu.Unlock()
	if prevStop != nil {
		close(prevStop)
		<-prevDone
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.tick()
			}
		}
	}()
}

// tick is one AutoRefresh beat: it compacts when the policy asks for
// it or the snapshot is stale (no snapshot yet, or a gap). Writes fold
// their own deltas, so there is nothing else to drain. Errors are kept
// for State (last_refresh_error).
func (p *Platform) tick() {
	if p.CompactionDue() || p.Stale() {
		_ = p.Refresh()
	}
}

// StopAutoRefresh stops the AutoRefresh loop, if running, and waits for
// it to exit.
func (p *Platform) StopAutoRefresh() {
	p.autoMu.Lock()
	stop, done := p.autoStop, p.autoDone
	p.autoStop, p.autoDone = nil, nil
	p.autoMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Additional re-exported service types.
type (
	// HistoryEntry is one matched personal-activity record.
	HistoryEntry = core.HistoryEntry
	// ResourceEvidence explains a user-resource relationship.
	ResourceEvidence = core.ResourceEvidence
	// KnowledgePath is a ranked weighted path in the RDF knowledge base.
	KnowledgePath = rdf.RankedPath
)

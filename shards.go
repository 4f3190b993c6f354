package hive

// Sharded write path. One Platform funnels every write through one
// journal lock and one serial delta pipeline; a Sharded runs N
// independent Platforms — each with its own kv store, journal,
// change-event stream and delta pipeline — and routes every mutation to
// the shard owning its user, so writes to different shards commit and
// fold into serving snapshots in parallel. Reads scatter-gather: search
// fans out under merged global corpus statistics and k-way merges the
// per-shard top-k (bit-identical to an unsharded build — see
// internal/textindex/stats.go), feeds merge per-shard newest-first
// event streams with a per-shard sequence-vector cursor, set reads
// (attendees, tags) union disjoint per-shard slices, and activity
// change monitoring merges every shard's activity stream.
//
// Placement is by owner hash (api.ShardOf — part of the wire contract;
// data dirs pin it), and it is decided here for every write: papers
// live on their first author's shard, workpads and check-ins on their
// owner's, and entities that hang off another entity (presentations,
// questions, comments, answers, workpad items) follow it, found by
// probing.
// Reference entities every shard validates against — users, conferences,
// sessions — are broadcast to all shards; they are tiny, rarely written
// and never text-indexed, so the duplication costs little and keeps
// every store-local validation and every engine's user table intact.
//
// The shard count is fixed for the life of a data dir (a manifest under
// Dir enforces it): placement is pure hashing with no relocation map,
// so changing N would orphan every previously routed entity.
//
// Per-shard evidence graphs see only their shard's interactions, so
// engine services that walk them (peer recommendation, explanation,
// history) answer from the owner shard's evidence — a documented
// approximation; search, feeds and set reads are exact.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"hive/api"
	"hive/internal/core"
	"hive/internal/metrics"
	"hive/internal/social"
	"hive/internal/tensor"
	"hive/internal/textindex"
	"hive/internal/topk"
)

// Sharded is the serving backend and the one definition of every
// service: N >= 1 shard-leader Platforms in one process behind an
// owner-hash router. It is the one shape the server and hived hold — a
// standalone Platform is a Sharded of one shard (OneShard), where
// routing always picks shard 0 and reads run inline with no fan-out.
//
// On a replication follower every mutation rejects with a NotLeaderError
// naming the leader (replicated state arrives via the journal tail, not
// these methods); with quorum writes enabled every mutation holds its
// response until a quorum of followers acknowledged it (Platform.mutate).
// Reads answer from each shard's published snapshot and never wait on
// maintenance in flight (Platform.serving).
type Sharded struct {
	shards []*Platform
	// Per-shard trace stage names of the fan-out reads, built once by
	// OpenSharded so a request formats none. The router a Platform
	// embeds has none: one shard's reads run inline and record no stage.
	searchStage, feedStage []string
}

// router is the name a Platform embeds its one-shard Sharded under: the
// field stays unexported while every Sharded method is promoted.
type router = Sharded

// OneShard returns the one-shard Sharded a standalone Platform embeds —
// the same value its own service methods run through. The caller keeps
// ownership of p: closing either closes the platform.
func OneShard(p *Platform) *Sharded { return p.router }

// shardManifest pins a data dir's shard count across reopens.
type shardManifest struct {
	Shards int `json:"shards"`
}

// OpenSharded opens an N-shard platform. One shard is the unsharded
// layout: the store lives directly under Dir and no manifest is
// written. With more, each shard lives under Dir/shard-<i> with its own
// journal and Dir/shards.json records N. Reopening a data dir with a
// different count — either way round — fails: the shard count is fixed
// for the life of a data dir. opts applies to every shard; the Clock is
// shared so the shards consume one time source in arrival order.
// Cluster mode composes per shard across processes, not inside one —
// opts.Cluster needs shards == 1.
func OpenSharded(shards int, opts Options) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("hive: shard count %d < 1", shards)
	}
	if shards > 1 && opts.Cluster != nil {
		return nil, errors.New("hive: more than one shard excludes Cluster: per-shard cluster replication runs one process per shard leader")
	}
	if opts.Dir != "" {
		if err := checkShardManifest(opts.Dir, shards); err != nil {
			return nil, err
		}
	}
	sh := &Sharded{shards: make([]*Platform, 0, shards)}
	for i := 0; i < shards; i++ {
		po := opts
		if opts.Dir != "" && shards > 1 {
			po.Dir = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d", i))
		}
		p, err := Open(po)
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("hive: open shard %d: %w", i, err)
		}
		p.shardID = i
		sh.shards = append(sh.shards, p)
		sh.searchStage = append(sh.searchStage, fmt.Sprintf("search_shard%d", i))
		sh.feedStage = append(sh.feedStage, fmt.Sprintf("feed_shard%d", i))
	}
	return sh, nil
}

// dirShardCount reports the shard count a data dir was created with:
// what its manifest records, 1 for a dir holding an unsharded store
// (one shard never writes a manifest), 0 for a dir not used yet.
func dirShardCount(dir string) (int, error) {
	path := filepath.Join(dir, "shards.json")
	raw, err := os.ReadFile(path)
	if err == nil {
		var m shardManifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return 0, fmt.Errorf("hive: corrupt shard manifest %s: %w", path, err)
		}
		return m.Shards, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	for _, name := range []string{"wal.log", "snapshot.db", "journal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return 1, nil
		}
	}
	return 0, nil
}

// checkShardManifest verifies the data dir's shard count, recording it
// on first use when there is more than one shard.
func checkShardManifest(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	have, err := dirShardCount(dir)
	if err != nil {
		return err
	}
	if have != 0 && have != shards {
		return fmt.Errorf("hive: data dir %s was created with %d shards, asked to open with %d: the shard count is fixed for the life of a data dir", dir, have, shards)
	}
	if have != 0 || shards == 1 {
		return nil
	}
	raw, err := json.Marshal(shardManifest{Shards: shards})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "shards.json"), raw, 0o644)
}

// ShardID reports this platform's position in a sharded deployment's
// shard map (0 on standalone platforms).
func (p *Platform) ShardID() int { return p.shardID }

// ShardCount reports the number of shards.
func (sh *Sharded) ShardCount() int { return len(sh.shards) }

// ShardOf maps an owner to its shard (the wire-contract hash).
func (sh *Sharded) ShardOf(owner string) int { return api.ShardOf(owner, len(sh.shards)) }

// Shard returns one shard's Platform.
func (sh *Sharded) Shard(i int) *Platform { return sh.shards[i] }

// Shards returns the shard Platforms in shard order. The slice is
// shared; treat it as read-only.
func (sh *Sharded) Shards() []*Platform { return sh.shards }

// home returns the Platform owning a user's partition.
func (sh *Sharded) home(owner string) *Platform { return sh.shards[sh.ShardOf(owner)] }

// Close closes every shard, returning the first error.
func (sh *Sharded) Close() error {
	var first error
	for _, p := range sh.shards {
		if p == nil {
			continue
		}
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// forAll runs fn on every shard concurrently and returns the first
// error (by shard order, deterministically).
func (sh *Sharded) forAll(fn func(p *Platform) error) error {
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, p := range sh.shards {
		wg.Add(1)
		go func(i int, p *Platform) {
			defer wg.Done()
			errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Refresh compacts every shard — in parallel, the point of the split.
func (sh *Sharded) Refresh() error { return sh.forAll(func(p *Platform) error { return p.Refresh() }) }

// ApplyDeltas compacts every shard whose snapshot is stale.
func (sh *Sharded) ApplyDeltas() error {
	return sh.forAll(func(p *Platform) error { return p.ApplyDeltas() })
}

// RefreshAsync kicks a background compaction on every shard.
func (sh *Sharded) RefreshAsync() {
	for _, p := range sh.shards {
		p.RefreshAsync()
	}
}

// AutoRefresh starts each shard's background compaction loop.
func (sh *Sharded) AutoRefresh(interval time.Duration) {
	for _, p := range sh.shards {
		p.AutoRefresh(interval)
	}
}

// StopAutoRefresh stops every shard's loop.
func (sh *Sharded) StopAutoRefresh() {
	for _, p := range sh.shards {
		p.StopAutoRefresh()
	}
}

// Generation sums the shard snapshot generations: any shard swap
// changes cross-shard query results, so the sum is the scatter-gather
// read path's cache/ETag key.
func (sh *Sharded) Generation() uint64 {
	var g uint64
	for _, p := range sh.shards {
		g += p.Generation()
	}
	return g
}

// Stale reports whether any shard's snapshot is stale.
func (sh *Sharded) Stale() bool {
	for _, p := range sh.shards {
		if p.Stale() {
			return true
		}
	}
	return false
}

// Batched coalesces a multi-entity load into one change batch per
// shard: the shards' Batched scopes nest, so every routed write inside
// fn lands in its shard's single coalesced batch (one snapshot
// invalidation per shard instead of one per entity). A shard behind its
// write fence refuses the whole batch up front, with the NotLeaderError
// a single write would get, so no element applies anywhere.
func (sh *Sharded) Batched(fn func() error) error {
	for _, p := range sh.shards {
		if err := p.writable(); err != nil {
			return err
		}
	}
	var run func(i int) error
	run = func(i int) error {
		if i == len(sh.shards) {
			return fn()
		}
		return sh.shards[i].store.Batched(func() error { return run(i + 1) })
	}
	return run(0)
}

// broadcast applies a reference-entity write to every shard, in shard
// order, through each shard's write fence. The write must be
// deterministic and clock-free so replicas stay identical; the
// store-level Put{User,Conference,Session} are.
func (sh *Sharded) broadcast(fn func(st *social.Store) error) error {
	for _, p := range sh.shards {
		if err := p.mutate(fn); err != nil {
			return err
		}
	}
	return nil
}

// shardWhere returns the first shard whose store satisfies the probe,
// or -1. Entities that hang off another entity route with it. One shard
// is the answer without asking: the store's own validation reports a
// missing parent.
func (sh *Sharded) shardWhere(probe func(st *social.Store) bool) int {
	if len(sh.shards) == 1 {
		return 0
	}
	for i, p := range sh.shards {
		if probe(p.store) {
			return i
		}
	}
	return -1
}

// --- Mutations (routed) -------------------------------------------------------

// RegisterUser broadcasts the profile to every shard (reference data).
func (sh *Sharded) RegisterUser(u User) error {
	return sh.broadcast(func(st *social.Store) error { return st.PutUser(u) })
}

// CreateConference broadcasts the conference to every shard.
func (sh *Sharded) CreateConference(c Conference) error {
	return sh.broadcast(func(st *social.Store) error { return st.PutConference(c) })
}

// CreateSession broadcasts the session to every shard.
func (sh *Sharded) CreateSession(s Session) error {
	return sh.broadcast(func(st *social.Store) error { return st.PutSession(s) })
}

// PublishPaper routes the paper to its first author's shard.
func (sh *Sharded) PublishPaper(pa Paper) error {
	return sh.home(api.PaperOwner(pa)).mutate(func(st *social.Store) error { return st.PutPaper(pa) })
}

// UploadPresentation attaches slide content to a paper (the §1.1
// "uploads his presentation slides" step), routed to the paper's shard:
// the slides join the paper's partition and text index.
func (sh *Sharded) UploadPresentation(pr Presentation) error {
	i := sh.shardWhere(func(st *social.Store) bool { return st.HasPaper(pr.PaperID) })
	if i < 0 {
		i = sh.ShardOf(pr.Owner) // surfaces the store's not-found error
	}
	return sh.shards[i].mutate(func(st *social.Store) error {
		if err := st.PutPresentation(pr); err != nil {
			return err
		}
		_, err := st.LogEvent(pr.Owner, "upload", pr.ID, nil)
		return err
	})
}

// Connect routes the connection to a's shard and mirrors the edge onto
// b's shard (edge only, no duplicate activity event) so both engines
// see it in their graph layers.
func (sh *Sharded) Connect(a, b string) error {
	ia, ib := sh.ShardOf(a), sh.ShardOf(b)
	if err := sh.shards[ia].mutate(func(st *social.Store) error { return st.Connect(a, b) }); err != nil {
		return err
	}
	if ib == ia {
		return nil
	}
	return sh.shards[ib].mutate(func(st *social.Store) error { return st.MirrorConnection(a, b) })
}

// Connected reports whether two users are connected (either side's
// shard holds the edge; a's is asked).
func (sh *Sharded) Connected(a, b string) bool { return sh.home(a).store.Connected(a, b) }

// Follow routes the edge to the follower's shard — the shard that
// serves the follower's feed.
func (sh *Sharded) Follow(follower, followee string) error {
	return sh.home(follower).mutate(func(st *social.Store) error { return st.Follow(follower, followee) })
}

// CheckIn records session attendance and broadcasts it (with the
// session hashtag when present), routed to the attendee's shard
// (sessions are broadcast, so validation is local).
func (sh *Sharded) CheckIn(sessionID, userID string) error {
	return sh.home(userID).mutate(func(st *social.Store) error { return st.CheckIn(sessionID, userID) })
}

// Ask routes the question to the shard holding its target paper (the
// discussion joins the content's partition, and the event's session
// hashtag resolves there); questions about broadcast entities fall
// back to the author's shard.
func (sh *Sharded) Ask(q Question) error {
	i := sh.shardWhere(func(st *social.Store) bool { return st.HasPaper(q.Target) })
	if i < 0 {
		i = sh.ShardOf(q.Author)
	}
	return sh.shards[i].mutate(func(st *social.Store) error { return st.AskQuestion(q) })
}

// AnswerQuestion routes the answer to its question's shard.
func (sh *Sharded) AnswerQuestion(a Answer) error {
	i := sh.shardWhere(func(st *social.Store) bool { return st.HasQuestion(a.QuestionID) })
	if i < 0 {
		i = sh.ShardOf(a.Author)
	}
	return sh.shards[i].mutate(func(st *social.Store) error { return st.PostAnswer(a) })
}

// PostComment routes the comment to its target paper's shard (same
// placement rule as questions), falling back to the author's shard.
func (sh *Sharded) PostComment(c Comment) error {
	i := sh.shardWhere(func(st *social.Store) bool { return st.HasPaper(c.Target) })
	if i < 0 {
		i = sh.ShardOf(c.Author)
	}
	return sh.shards[i].mutate(func(st *social.Store) error { return st.PostComment(c) })
}

// CreateWorkpad routes the workpad to its owner's shard.
func (sh *Sharded) CreateWorkpad(w Workpad) error {
	return sh.home(w.Owner).mutate(func(st *social.Store) error { return st.PutWorkpad(w) })
}

// AddToWorkpad routes the item to its workpad's shard.
func (sh *Sharded) AddToWorkpad(workpadID string, item WorkpadItem) error {
	i := sh.shardWhere(func(st *social.Store) bool { return st.HasWorkpad(workpadID) })
	if i < 0 {
		i = 0
	}
	return sh.shards[i].mutate(func(st *social.Store) error { return st.AddToWorkpad(workpadID, item) })
}

// ActivateWorkpad selects the user's active context, on the owner's
// shard (workpads live there).
func (sh *Sharded) ActivateWorkpad(owner, workpadID string) error {
	return sh.home(owner).mutate(func(st *social.Store) error { return st.SetActiveWorkpad(owner, workpadID) })
}

// LogBrowse records that a registered user viewed an object — an
// input of activity similarity, collaborative filtering and change
// monitoring — on the user's shard.
func (sh *Sharded) LogBrowse(userID, object string) error {
	if object == "" {
		return fmt.Errorf("%w: browse needs an object", social.ErrInvalid)
	}
	return sh.home(userID).mutate(func(st *social.Store) error {
		if !st.HasUser(userID) {
			return fmt.Errorf("%w: user %q", social.ErrNotFound, userID)
		}
		_, err := st.LogEvent(userID, "browse", object, nil)
		return err
	})
}

// --- Entity reads -------------------------------------------------------------

// GetUser reads the broadcast profile (any shard; 0 is asked).
func (sh *Sharded) GetUser(id string) (User, error) { return sh.shards[0].store.User(id) }

// Users lists all user IDs (broadcast; shard 0 is asked).
func (sh *Sharded) Users() []string { return sh.shards[0].store.Users() }

// Attendees unions the per-shard attendee sets (check-ins are routed by
// attendee, so the slices are disjoint; the union is sorted like the
// unsharded scan, and deduplicated to stay a set).
func (sh *Sharded) Attendees(sessionID string) []string {
	var out []string
	for _, p := range sh.shards {
		out = append(out, p.store.Attendees(sessionID)...)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// ActiveWorkpad reads the owner's shard.
func (sh *Sharded) ActiveWorkpad(owner string) (Workpad, error) {
	return sh.home(owner).store.ActiveWorkpad(owner)
}

// --- Feeds (scatter-gather with sequence-vector cursors) ----------------------

// shardEvent is a feed event with the shard it was read from: the
// cursor advances per shard.
type shardEvent struct {
	ev    Event
	shard int
}

// decodeFeedEvent decodes one event of a shard's feed stream. It is a
// variable only so tests can count decodes and lose a record.
var decodeFeedEvent = (*social.Store).EventAt

// feedStream is one shard's newest-first stream in the feed merge: the
// sequence keys not yet decoded and the decoded head.
type feedStream struct {
	shard int
	st    *social.Store
	keys  []string
	head  Event
}

// advance decodes the stream's next event into head, skipping keys
// whose event is gone. It reports false once the keys run out.
func (f *feedStream) advance() bool {
	for len(f.keys) > 0 {
		ev, ok := decodeFeedEvent(f.st, f.keys[0])
		f.keys = f.keys[1:]
		if ok {
			f.head = ev
			return true
		}
	}
	return false
}

// Feed returns the user's update feed — events by their followees,
// oldest first, the most recent limit of them — gathered across every
// shard (a followee's activity lives on *its* entity's shard, e.g. an
// answer on the question's). Matches the one-shard order — the store's
// own Feed — whenever event timestamps are distinct.
func (sh *Sharded) Feed(userID string, limit int) []Event {
	page, _ := sh.feedScatter(context.Background(), userID, make([]uint64, len(sh.shards)), limit)
	evs := make([]Event, len(page))
	// The merged page is newest-first; Feed is oldest-first.
	for i, se := range page {
		evs[len(page)-1-i] = se.ev
	}
	return evs
}

// FeedPage returns one newest-first feed page plus the cursor for the
// next. The cursor is a per-shard sequence-bound vector (see
// api.EncodeShardCursor): each shard resumes strictly below the lowest
// sequence already consumed from it, so pages never skip or repeat an
// event while any shard keeps writing — the guarantee a single global
// offset cannot give once sequences are per-shard. ctx carries the
// request trace (if any): each shard's gather is recorded as a stage.
func (sh *Sharded) FeedPage(ctx context.Context, userID, cursor string, limit int) ([]Event, string, error) {
	bounds, err := api.DecodeShardCursor(cursor, len(sh.shards))
	if err != nil {
		return nil, "", err
	}
	if limit <= 0 {
		limit = 20
	}
	page, hasMore := sh.feedScatter(ctx, userID, bounds, limit)
	evs := make([]Event, len(page))
	for i, se := range page {
		evs[i] = se.ev
		// Advance each consumed shard's bound to its lowest consumed
		// sequence; untouched shards keep their previous bound.
		bounds[se.shard] = se.ev.Seq
	}
	next := ""
	if hasMore {
		next = api.EncodeShardCursor(bounds)
	}
	return evs, next, nil
}

// feedScatter merges the followee set's newest-first event streams
// below each shard's bound. limit <= 0 means everything. Each shard
// lists only its sequence keys, inline; the merge decodes one head per
// shard, then one more event from a shard each time it emits that
// shard's head, so a page decodes at most limit + shards events. Later
// events come first, timestamp ties go to the lower shard index, and
// each shard's stream keeps its sequence order. hasMore reports whether
// a shard's remaining keys still held an event past the page.
func (sh *Sharded) feedScatter(ctx context.Context, userID string, bounds []uint64, limit int) (page []shardEvent, hasMore bool) {
	followees := sh.home(userID).store.Following(userID)
	if len(followees) == 0 {
		return nil, false
	}
	fetch := 0
	if limit > 0 {
		fetch = limit + 1 // one extra detects leftovers precisely
	}
	fanOut := len(sh.shards) > 1
	if fanOut {
		defer mScatterFeedSeconds.ObserveSince(time.Now())
	}
	tr := metrics.TraceFrom(ctx)
	streams := make([]feedStream, 0, len(sh.shards))
	for i, p := range sh.shards {
		end := func() {}
		if fanOut {
			end = tr.StartStage(sh.feedStage[i])
		}
		f := feedStream{shard: i, st: p.store, keys: p.store.EventKeysBefore(followees, bounds[i], fetch)}
		end()
		if f.advance() {
			streams = append(streams, f)
		}
	}
	for len(streams) > 0 && (limit <= 0 || len(page) < limit) {
		b := 0
		for j := 1; j < len(streams); j++ {
			if streams[j].head.At > streams[b].head.At {
				b = j
			}
		}
		f := &streams[b]
		page = append(page, shardEvent{ev: f.head, shard: f.shard})
		if !f.advance() {
			streams = slices.Delete(streams, b, b+1)
		}
	}
	return page, len(streams) > 0
}

// EventsByTag merges the hashtag fan-out across shards, oldest first
// like the unsharded scan.
func (sh *Sharded) EventsByTag(tag string) []Event {
	return sh.oldestFirst(func(st *social.Store) []Event { return st.EventsByTag(tag) })
}

// oldestFirst merges one oldest-first event list per shard by
// timestamp, ties to the lower shard, each shard's list kept in its
// own order.
func (sh *Sharded) oldestFirst(fetch func(st *social.Store) []Event) []Event {
	lists := make([][]Event, len(sh.shards))
	for i, p := range sh.shards {
		lists[i] = fetch(p.store)
	}
	return topk.MergeTopK(lists, 0, func(a, b Event) bool { return a.At < b.At })
}

// --- Knowledge services (scatter-gather / owner-shard routed) -----------------

// serving resolves the engine a read answers from: the published
// snapshot, never waiting on maintenance in flight and never starting
// any. Writes fold their own deltas before they return, a write too
// large to fold starts its own compaction and AutoRefresh compacts by
// policy, so a stale snapshot is served as it is; only a shard with no
// snapshot yet builds one. Every Sharded read resolves its engines this way.
func (p *Platform) serving() (*core.Engine, error) {
	if eng := p.current.Load(); eng != nil {
		return eng, nil
	}
	return p.Engine()
}

// engines resolves every shard's serving engine once, so a multi-phase
// read works against one consistent set of snapshots.
func (sh *Sharded) engines() ([]*core.Engine, error) {
	engs := make([]*core.Engine, len(sh.shards))
	for i, p := range sh.shards {
		eng, err := p.serving()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engs[i] = eng
	}
	return engs, nil
}

// EngineFor returns the owner's shard engine (the one holding their
// partition's evidence).
func (sh *Sharded) EngineFor(owner string) (*core.Engine, error) {
	return sh.home(owner).serving()
}

var searchBetter = func(a, b textindex.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// Search scatter-gathers BM25 search: phase one gathers each shard's
// corpus statistics for the query terms and sums them (exact — integer
// counts over disjoint documents), phase two has every shard score its
// own postings under the merged global statistics, and the per-shard
// top-k lists k-way merge under the same score/doc-ID order the
// unsharded path uses. Results are bit-identical to one unsharded
// index of the union corpus, tie-breaks included. One shard is that
// index: its engine answers inline.
func (sh *Sharded) Search(ctx context.Context, query string, k int) ([]SearchResult, error) {
	if len(sh.shards) == 1 {
		eng, err := sh.shards[0].serving()
		if err != nil {
			return nil, err
		}
		defer mSearchSeconds.ObserveSince(time.Now())
		return eng.Search(query, k), nil
	}
	merged, _, err := sh.scatterSearch(ctx, query, k)
	if err != nil {
		return nil, err
	}
	return toResults(merged), nil
}

// scatterSearch runs the two-phase fan-out and also reports which
// shard's read view owns each returned document (for re-ranking reads).
// ctx carries the request trace (if any): each shard's scoring pass is
// recorded as a stage, so debug/traces shows where a slow fan-out
// spent its time.
func (sh *Sharded) scatterSearch(ctx context.Context, query string, k int) ([]textindex.Result, map[string]*textindex.Segmented, error) {
	defer mScatterSearchSeconds.ObserveSince(time.Now())
	tr := metrics.TraceFrom(ctx)
	engs, err := sh.engines()
	if err != nil {
		return nil, nil, err
	}
	views := make([]*textindex.Segmented, len(engs))
	terms := textindex.Terms(query) // once for every shard's statistics and scoring
	parts := make([]textindex.CorpusStats, 0, len(engs))
	for i, eng := range engs {
		if seg := eng.Segment(); seg != nil {
			views[i] = seg
			parts = append(parts, seg.Stats(terms))
		}
	}
	g := textindex.MergeStats(parts)
	lists := make([][]textindex.Result, len(engs))
	var wg sync.WaitGroup
	for i, v := range views {
		if v == nil {
			continue
		}
		wg.Add(1)
		go func(i int, v *textindex.Segmented) {
			defer wg.Done()
			defer tr.StartStage(sh.searchStage[i])()
			lists[i] = v.SearchTerms(terms, k, g)
		}(i, v)
	}
	wg.Wait()
	owner := make(map[string]*textindex.Segmented)
	for i, rs := range lists {
		for _, r := range rs {
			owner[r.DocID] = views[i]
		}
	}
	return topk.MergeTopK(lists, k, searchBetter), owner, nil
}

func toResults(rs []textindex.Result) []SearchResult {
	out := make([]SearchResult, len(rs))
	for i, r := range rs {
		out[i] = SearchResult{DocID: r.DocID, Score: r.Score}
	}
	return out
}

// SearchWithContext scatter-gathers the BM25 base exactly, then
// re-ranks by similarity to the user's compiled context (from their home
// shard, which holds their workpad) with the engine's own re-rank.
// Document weights come from the owning shard's statistics — a
// shard-local approximation, unlike the exact base ranking. One shard
// has nothing to approximate: its engine answers inline.
func (sh *Sharded) SearchWithContext(ctx context.Context, userID, query string, k int) ([]SearchResult, error) {
	home, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	if len(sh.shards) == 1 {
		defer mSearchSeconds.ObserveSince(time.Now())
		return home.SearchWithContext(userID, query, k), nil
	}
	base, owner, err := sh.scatterSearch(ctx, query, 4*k)
	if err != nil {
		return nil, err
	}
	return core.RerankByContext(base, home.ContextQuery(userID), k,
		func(docID string) *textindex.Segmented { return owner[docID] }), nil
}

// docShard locates the shard engine holding an indexed document.
func (sh *Sharded) docShard(docID string) (*core.Engine, string, error) {
	engs, err := sh.engines()
	if err != nil {
		return nil, "", err
	}
	var lastErr error
	for _, eng := range engs {
		seg := eng.Segment()
		if seg == nil {
			continue
		}
		text, err := seg.Text(docID)
		if err == nil {
			return eng, text, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %q", textindex.ErrDocNotFound, docID)
	}
	return nil, "", lastErr
}

// Preview extracts context-relevant snippets: the text from the shard
// holding the document, the context from the user's home shard.
func (sh *Sharded) Preview(userID, docID string, k int) ([]Snippet, error) {
	_, text, err := sh.docShard(docID)
	if err != nil {
		return nil, err
	}
	home, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return textindex.ExtractSnippets(text, home.ContextQuery(userID), k), nil
}

// UpdateDigest summarizes the user's cross-shard feed. Event targets
// are classified by probing every shard (an event about a paper on
// another shard must still classify as "paper").
func (sh *Sharded) UpdateDigest(userID string, budget int) (*Summary, error) {
	home, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	feed := sh.Feed(userID, 0)
	return home.DigestOfEvents(feed, budget, sh.targetKind)
}

// targetKind classifies an entity against every shard's store, in the
// unsharded classifier's precedence order.
func (sh *Sharded) targetKind(entity string) string {
	if entity == "" {
		return "other"
	}
	probes := []struct {
		kind string
		has  func(st *social.Store) bool
	}{
		{"paper", func(st *social.Store) bool { return st.HasPaper(entity) }},
		{"presentation", func(st *social.Store) bool { _, err := st.Presentation(entity); return err == nil }},
		{"question", func(st *social.Store) bool { return st.HasQuestion(entity) }},
		{"session", func(st *social.Store) bool { _, err := st.Session(entity); return err == nil }},
		{"conference", func(st *social.Store) bool { _, err := st.Conference(entity); return err == nil }},
		{"user", func(st *social.Store) bool { _, err := st.User(entity); return err == nil }},
	}
	for _, pr := range probes {
		for _, p := range sh.shards {
			if pr.has(p.store) {
				return pr.kind
			}
		}
	}
	return "other"
}

// MonitorActivity runs SCENT change detection (§2.4) over the whole
// activity stream: every shard's events merged oldest first (the
// unsharded stream whenever timestamps are distinct — each event lives
// on one shard, a mirrored connection logs none), sliced into epochs of
// epochEvents events over the broadcast user index. Targets are
// classified against every shard like the digest's, once per object.
func (sh *Sharded) MonitorActivity(epochEvents int) ([]ChangeResult, error) {
	events := sh.oldestFirst(func(st *social.Store) []Event { return st.EventsSince(0, 0) })
	kinds := map[string]string{}
	kindOf := func(obj string) string {
		k, ok := kinds[obj]
		if !ok {
			k = sh.targetKind(obj)
			kinds[obj] = k
		}
		return k
	}
	stream, sk, err := core.ActivityTensorStream(events, sh.Users(), kindOf, epochEvents)
	if err != nil {
		return nil, err
	}
	return tensor.MonitorSketched(sk, stream, &tensor.Detector{})
}

// Communities concatenates per-shard community discoveries, largest
// first. Shards discover over their own evidence graphs — cross-shard
// ties are a documented approximation gap.
func (sh *Sharded) Communities() ([][]string, error) {
	engs, err := sh.engines()
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, eng := range engs {
		out = append(out, eng.Communities()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) > len(out[j]) })
	return out, nil
}

// The remaining engine services answer from the relevant user's home
// shard: its engine holds that user's partition of the evidence.

// Explain explains the relationship between two researchers from a's
// shard evidence.
func (sh *Sharded) Explain(a, b string) (Explanation, error) {
	eng, err := sh.EngineFor(a)
	if err != nil {
		return Explanation{}, err
	}
	return eng.Explain(a, b)
}

// RecommendPeers suggests peers from the user's shard evidence.
func (sh *Sharded) RecommendPeers(userID string, k int) ([]PeerRecommendation, error) {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return eng.RecommendPeers(userID, k)
}

// RankPeers is RecommendPeers without the per-peer explanations, for a
// pager that explains only the page it serves (ExplainPeers).
func (sh *Sharded) RankPeers(userID string, k int) ([]PeerRecommendation, error) {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return eng.RankPeers(userID, k)
}

// ExplainPeers fills in the evidences and likely sessions of ranked
// peers, in place.
func (sh *Sharded) ExplainPeers(userID string, recs []PeerRecommendation) error {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return err
	}
	return eng.ExplainPeers(userID, recs)
}

// SuggestSessions ranks a conference's sessions for the user.
func (sh *Sharded) SuggestSessions(userID, confID string, k int) ([]SessionSuggestion, error) {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return eng.SuggestSessions(userID, confID, k)
}

// RecommendResources suggests documents from the user's shard corpus.
func (sh *Sharded) RecommendResources(userID string, k int, useContext bool) ([]ResourceRecommendation, error) {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return eng.RecommendResources(userID, k, useContext)
}

// SearchHistory searches the user's personal history on their shard.
func (sh *Sharded) SearchHistory(userID, query string, useContext bool, limit int) ([]HistoryEntry, error) {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return eng.SearchHistory(userID, query, useContext, limit)
}

// ExplainResource explains a user-resource relationship on the user's
// shard.
func (sh *Sharded) ExplainResource(userID, entity string) ([]ResourceEvidence, error) {
	eng, err := sh.EngineFor(userID)
	if err != nil {
		return nil, err
	}
	return eng.ExplainResource(userID, entity)
}

// KnowledgePaths answers from shard 0's knowledge base (entity IDs are
// prefixed, not owner-addressed; cross-shard path stitching is future
// work).
func (sh *Sharded) KnowledgePaths(a, b string, k int) ([]KnowledgePath, error) {
	eng, err := sh.shards[0].serving()
	if err != nil {
		return nil, err
	}
	return eng.KnowledgePaths(a, b, k), nil
}

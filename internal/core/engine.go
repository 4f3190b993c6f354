// Package core implements the MiNC engine (paper §2, ref [8]): the
// middleware for network- and context-aware recommendations that powers
// every knowledge service of Hive. It derives the multi-layer context
// network of Figure 3 from the social store, aligns and integrates the
// layers, and provides evidence-based relationship discovery and
// explanation (Figure 2), context-aware search and ranking driven by the
// active workpad (Figure 4), peer and resource recommendation,
// collaborative filtering, community discovery, update digests, and
// activity change monitoring.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"hive/internal/align"
	"hive/internal/community"
	"hive/internal/conceptmap"
	"hive/internal/graph"
	"hive/internal/rdf"
	"hive/internal/social"
	"hive/internal/textindex"
)

// ErrUnknownUser is returned when a service references a missing user.
var ErrUnknownUser = errors.New("core: unknown user")

// Document ID prefixes in the text index.
const (
	DocPaper        = "paper/"
	DocPresentation = "pres/"
	DocQuestion     = "question/"
)

// Layer names of the integrated context network.
const (
	LayerConnections = "connections"
	LayerCoauthor    = "coauthor"
	LayerAttendance  = "attendance"
	LayerQA          = "qa"
)

// Engine is the assembled knowledge middleware: an immutable snapshot of
// every derived knowledge structure. A Builder produces it (fanning the
// derivation stages out across workers); after Build returns, nothing
// mutates the Engine, so any number of goroutines can serve queries from
// it while a replacement snapshot is built in the background and swapped
// in atomically (the paper's deployment refreshed knowledge structures
// periodically and offline; hive.Platform does it with zero downtime).
type Engine struct {
	store *social.Store

	// seg is the one text read path: the frozen base segment of the last
	// full build plus the delta overlay. Every engine Build or ApplyDelta
	// returns has it set.
	seg      *textindex.Segmented
	concepts *conceptmap.Map

	papers []social.Paper
	users  []string

	citationNet *graph.Graph // paper → cited paper

	// Per-evidence user layers, derived concurrently then integrated.
	connLayer   *graph.Graph
	coauthLayer *graph.Graph
	attendLayer *graph.Graph
	qaLayer     *graph.Graph

	layers     []*align.Layer
	integrated *align.Integrated
	peerGraph  *graph.Graph // alias of integrated.G

	kb *rdf.KB // weighted RDF export of all layers (R2DB)

	communities []community.Community

	// Snapshot-resident read-path tables, precomputed by the Builder so
	// serving never re-derives them (the paper's offline refresh): each
	// user's workpad context, each session's text, each user's
	// uploaded-content TF-IDF vector, each user's interaction vector and
	// each object's popularity count from the activity stream. ApplyDelta
	// repairs rows in the overlays. The values are shared and must be
	// treated as read-only by callers.
	ctx      table[userContext]
	sessions table[*textindex.CompiledVector] // session ID -> term-frequency run of its text
	content  table[*textindex.CompiledVector] // user ID -> TF-IDF run of their uploads
	inter    table[textindex.Vector]
	pop      table[int]

	// vecDict is the snapshot's term dictionary: the base segment's
	// vocabulary and every context and session term. The context rows,
	// session runs and content rows of the build are flat runs over it,
	// each table's laid end to end. Deltas share it; a repaired row
	// holding a term it lacks carries a dictionary of its own.
	vecDict *textindex.Dict

	// evtSeq is the highest activity-stream sequence the build's scan
	// folded into the interaction tables. Deltas keep it: they fold an
	// activity event above it and skip one at or below it as counted.
	evtSeq uint64
	// graphPending counts applied events whose evidence-graph effects
	// (connections, co-attendance, Q&A, coauthorship) await the next
	// compaction; the platform's compaction policy watches it.
	graphPending int

	deltaCount   int           // deltas applied since the last full build
	lastDeltaDur time.Duration // duration of the most recent delta apply
	appliedAt    time.Time     // when the most recent delta applied

	// pprMemo caches PersonalizedPageRank results per user for this
	// snapshot, computed on first request (RecommendPeers stops paying a
	// full power iteration per call). It is the one mutable, lock-guarded
	// corner of the otherwise immutable Engine; bounded by pprMemoMax.
	// Power iterations run outside the lock (concurrent misses for
	// different users proceed in parallel) on workspaces from pprPool.
	pprMu   sync.Mutex
	pprMemo map[string][]float64
	pprPool sync.Pool // *graph.PPRWorkspace, bound to peerGraph

	// buildWorkers is the Builder's parallelism, kept so phase-2 table
	// derivations can shard their per-user loops.
	buildWorkers int

	builtAt     time.Time
	buildDur    time.Duration
	buildStages []BuildStage
}

// table is one snapshot-resident table keyed by user or document: the
// rows of the last full build (base) and the rows deltas repaired since
// (over). A delta-derived snapshot shares base with its ancestor and
// copies only over, which the compaction policy keeps small.
type table[V any] struct {
	base, over map[string]V
}

// get returns the key's row, overlay first.
func (t table[V]) get(k string) (V, bool) {
	if v, ok := t.over[k]; ok {
		return v, true
	}
	v, ok := t.base[k]
	return v, ok
}

// each visits every row once; overlay rows win.
func (t table[V]) each(fn func(k string, v V)) {
	for k, v := range t.over {
		fn(k, v)
	}
	for k, v := range t.base {
		if _, shadowed := t.over[k]; !shadowed {
			fn(k, v)
		}
	}
}

// derive returns the table a delta starts from: the same base and a
// copy of the overlay with room for extra repairs. A delta that repairs
// no row writes no row, so with extra 0 it shares the table itself.
func (t table[V]) derive(extra int) table[V] {
	if extra == 0 {
		return t
	}
	over := make(map[string]V, len(t.over)+extra)
	for k, v := range t.over {
		over[k] = v
	}
	return table[V]{base: t.base, over: over}
}

// userContext is one user's row of the context table.
type userContext struct {
	query *textindex.CompiledVector // the context vector as a run over vecDict; nil when empty
	pins  []string                  // users pinned on the active workpad
}

// BuildStage is how long one named stage of a full build took.
type BuildStage struct {
	Name string
	Dur  time.Duration
}

// pprMemoMax bounds the per-snapshot PageRank memo. When full, the memo
// is reset wholesale: snapshots are short-lived relative to the user
// population, so simple wipe beats LRU bookkeeping here.
const pprMemoMax = 4096

// DeltaStats summarizes a snapshot's incremental-maintenance state: how
// far it has drifted from its last full build and how much merge-on-
// read work the overlay carries. The platform's compaction policy and
// the server's healthz read it.
type DeltaStats struct {
	// Deltas counts ApplyDelta derivations since the last full build.
	Deltas int
	// GraphPending counts applied events whose evidence-graph effects
	// await compaction.
	GraphPending int
	// OverlayDocs and Tombstones size the overlay segment.
	OverlayDocs int
	Tombstones  int
	// TombstoneRatio is the dead fraction of the base segment.
	TombstoneRatio float64
	// LastDeltaDur is the duration of the most recent delta apply, and
	// AppliedAt when it happened (zero on full builds).
	LastDeltaDur time.Duration
	AppliedAt    time.Time
}

// DeltaStats reports the snapshot's incremental-maintenance state.
func (e *Engine) DeltaStats() DeltaStats {
	return DeltaStats{
		Deltas:         e.deltaCount,
		GraphPending:   e.graphPending,
		OverlayDocs:    e.seg.OverlayDocs(),
		Tombstones:     e.seg.Tombstones(),
		TombstoneRatio: e.seg.TombstoneRatio(),
		LastDeltaDur:   e.lastDeltaDur,
		AppliedAt:      e.appliedAt,
	}
}

// BuiltAt reports when this snapshot finished building.
func (e *Engine) BuiltAt() time.Time { return e.builtAt }

// BuildDuration reports how long this snapshot took to build.
func (e *Engine) BuildDuration() time.Duration { return e.buildDur }

// BuildStages reports the duration of every stage of the full build
// behind this snapshot, in run order; the slice is shared, read-only.
// Stages of one wave run concurrently, so the durations can sum past
// BuildDuration.
func (e *Engine) BuildStages() []BuildStage { return e.buildStages }

// Store exposes the underlying social store.
func (e *Engine) Store() *social.Store { return e.store }

// Frozen exposes the frozen base segment of the last full build.
func (e *Engine) Frozen() *textindex.Frozen { return e.seg.Base() }

// Segment exposes the serving base+overlay read view.
func (e *Engine) Segment() *textindex.Segmented { return e.seg }

// ContextQuery returns the user's context vector as a flat run, nil
// when the context is empty. Known users get their snapshot row, so the
// serving path extracts and sorts no terms; users the snapshot does not
// know are compiled on the fly. Every context service scores against it.
func (e *Engine) ContextQuery(userID string) *textindex.CompiledVector {
	if row, ok := e.ctx.get(userID); ok {
		return row.query
	}
	if v := e.computeContextVector(userID); len(v) > 0 {
		return e.vecDict.Compile(v)
	}
	return nil
}

// searchUserContext ranks documents against the user's context vector;
// on a pristine snapshot the base segment skips all per-term hash
// lookups.
func (e *Engine) searchUserContext(userID string, k int) []textindex.Result {
	if cq := e.ContextQuery(userID); cq != nil {
		return e.seg.SearchCompiled(cq, k)
	}
	return nil
}

// ConceptMap exposes the bootstrapped concept map.
func (e *Engine) ConceptMap() *conceptmap.Map { return e.concepts }

// KnowledgeBase exposes the weighted RDF export (R2DB layer).
func (e *Engine) KnowledgeBase() *rdf.KB { return e.kb }

// GraphBytes reports the size of the snapshot's frozen graph layouts:
// the integrated context network, the four evidence layers, the
// citation graph, the concept map and the knowledge base, each by its
// Bytes. A delta snapshot shares its base's graphs.
func (e *Engine) GraphBytes() int {
	n := e.kb.Bytes() + e.concepts.Bytes()
	for _, g := range []*graph.Graph{e.peerGraph, e.connLayer, e.coauthLayer, e.attendLayer, e.qaLayer, e.citationNet} {
		n += g.Bytes()
	}
	return n
}

// VectorBytes reports the size of the snapshot's text vectors: the
// context rows, the session runs and the content rows, each by its
// Bytes, and the term dictionary they share (a repaired row's own
// dictionary is counted with it).
func (e *Engine) VectorBytes() int {
	n := e.vecDict.Bytes()
	add := func(cq *textindex.CompiledVector) {
		if cq == nil {
			return
		}
		n += cq.Bytes()
		if cq.Dict() != e.vecDict {
			n += cq.Dict().Bytes()
		}
	}
	e.ctx.each(func(_ string, row userContext) { add(row.query) })
	e.sessions.each(func(_ string, cq *textindex.CompiledVector) { add(cq) })
	e.content.each(func(_ string, cq *textindex.CompiledVector) { add(cq) })
	return n
}

// PeerGraph exposes the integrated peer network.
func (e *Engine) PeerGraph() *graph.Graph { return e.peerGraph }

// buildTextIndex indexes every paper, presentation and question into a
// build-local live index, freezes it into the lock-free dense read
// representation and wraps that in an empty segmented view; the
// phase-2 tables and all serving queries read through the view, which
// delegates straight to the frozen fast paths until a delta adds
// overlay documents. A full Build is therefore also the *compaction* of
// the delta pipeline: it folds every overlay into a fresh base segment.
func (e *Engine) buildTextIndex() error {
	ix := textindex.NewIndex()
	for _, p := range e.papers {
		ix.Add(DocPaper+p.ID, p.Title+". "+p.Abstract)
	}
	for _, u := range e.users {
		for _, prID := range e.store.PresentationsOfUser(u) {
			pr, err := e.store.Presentation(prID)
			if err != nil {
				return err
			}
			ix.Add(DocPresentation+pr.ID, pr.Title+". "+pr.Text)
		}
		for _, qID := range e.store.QuestionsBy(u) {
			q, err := e.store.Question(qID)
			if err != nil {
				return err
			}
			ix.Add(DocQuestion+q.ID, q.Text)
		}
	}
	e.seg = textindex.NewSegmented(ix.Freeze())
	return nil
}

func (e *Engine) buildConceptMap() {
	var docs []string
	for _, p := range e.papers {
		docs = append(docs, p.Title+". "+p.Abstract)
	}
	m, err := conceptmap.Bootstrap(docs, conceptmap.BootstrapOptions{MaxConcepts: 80})
	if err != nil {
		m = conceptmap.New() // empty corpus -> empty map, services degrade gracefully
	}
	e.concepts = m
}

// Layers exposes the evidence layers (for alignment experiments).
func (e *Engine) Layers() []*align.Layer { return e.layers }

// Integrated exposes the integrated context network.
func (e *Engine) Integrated() *align.Integrated { return e.integrated }

// ownersOf resolves the users responsible for an entity: paper authors,
// presentation owner, session chair, question author.
func (e *Engine) ownersOf(entity string) []string {
	if p, err := e.store.Paper(entity); err == nil {
		return p.Authors
	}
	if pr, err := e.store.Presentation(entity); err == nil {
		return []string{pr.Owner}
	}
	if s, err := e.store.Session(entity); err == nil && s.Chair != "" {
		return []string{s.Chair}
	}
	if q, err := e.store.Question(entity); err == nil {
		return []string{q.Author}
	}
	return nil
}

// exportKnowledgeBase mirrors the layers into the weighted RDF store so
// R2DB-style ranked path queries can explain any relationship. A mutual
// connection is one fact, stored once with its endpoints in ascending
// order: undirected path search traverses it both ways.
func (e *Engine) exportKnowledgeBase() {
	kb := rdf.NewBuilder()
	for _, p := range e.papers {
		for _, a := range p.Authors {
			_ = kb.Add(rdf.Triple{Subject: "user:" + a, Predicate: "authored", Object: "paper:" + p.ID, Weight: 1})
		}
		for _, c := range p.Citations {
			_ = kb.Add(rdf.Triple{Subject: "paper:" + p.ID, Predicate: "cites", Object: "paper:" + c, Weight: 0.9})
		}
		if p.SessionID != "" {
			_ = kb.Add(rdf.Triple{Subject: "paper:" + p.ID, Predicate: "presentedIn", Object: "session:" + p.SessionID, Weight: 1})
		}
	}
	for _, u := range e.users {
		for _, o := range e.store.ConnectionsOf(u) {
			a, b := u, o
			if b < a {
				a, b = b, a
			}
			_ = kb.Add(rdf.Triple{Subject: "user:" + a, Predicate: "connected", Object: "user:" + b, Weight: 1})
		}
		for _, o := range e.store.Following(u) {
			_ = kb.Add(rdf.Triple{Subject: "user:" + u, Predicate: "follows", Object: "user:" + o, Weight: 0.7})
		}
		for _, s := range e.store.SessionsAttendedBy(u) {
			_ = kb.Add(rdf.Triple{Subject: "user:" + u, Predicate: "attends", Object: "session:" + s, Weight: 0.8})
		}
	}
	e.kb = kb.Freeze()
}

// Communities returns the discovered peer communities as lists of user
// IDs, largest first (Table 1: "community discovery and tracking").
func (e *Engine) Communities() [][]string {
	var out [][]string
	for _, c := range e.communities {
		var users []string
		for _, id := range c {
			n, err := e.peerGraph.Node(id)
			if err == nil {
				users = append(users, n.Key)
			}
		}
		out = append(out, users)
	}
	return out
}

// entityText renders any entity into text for context building.
func (e *Engine) entityText(kind social.ItemKind, ref string) string {
	switch kind {
	case social.ItemPaper:
		if p, err := e.store.Paper(ref); err == nil {
			return p.Title + ". " + p.Abstract
		}
	case social.ItemPresentation:
		if pr, err := e.store.Presentation(ref); err == nil {
			return pr.Title + ". " + pr.Text
		}
	case social.ItemSession:
		if s, err := e.store.Session(ref); err == nil {
			parts := []string{s.Title, s.Track}
			for _, pid := range e.store.PapersOfSession(ref) {
				if p, err := e.store.Paper(pid); err == nil {
					parts = append(parts, p.Title)
				}
			}
			return strings.Join(parts, ". ")
		}
	case social.ItemUser:
		if u, err := e.store.User(ref); err == nil {
			return u.Name + ". " + strings.Join(u.Interests, ". ") + ". " + u.Bio
		}
	case social.ItemQuestion:
		if q, err := e.store.Question(ref); err == nil {
			return q.Text
		}
	}
	return ""
}

// String summarizes the engine for logs.
func (e *Engine) String() string {
	return fmt.Sprintf("mincengine(users=%d papers=%d peers=%d/%d concepts=%d kb=%d)",
		len(e.store.Users()), len(e.papers),
		e.peerGraph.NumNodes(), e.peerGraph.NumEdges(),
		e.concepts.Len(), e.kb.Len())
}

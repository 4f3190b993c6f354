package core

import (
	"fmt"

	"hive/internal/graph"
	"hive/internal/social"
	"hive/internal/tensor"
	"hive/internal/textindex"
	"hive/internal/topk"
)

// Recommendation services (paper §2.4): peer recommendation over the
// integrated network, peer-network based resource recommendation,
// session suggestion, and collaborative filtering.

// PeerRecommendation is a suggested new contact with its justification.
type PeerRecommendation struct {
	UserID string
	Score  float64
	// Evidences explains why (Figure 2 rendered for the suggestion).
	Evidences []Evidence
	// LikelySessions lists sessions the peer will probably attend (the
	// §1.1 scenario: "for each provides a list of sessions that the
	// researcher may most likely attend").
	LikelySessions []string
}

// RecommendPeers suggests up to k new peers for a user: personalized
// PageRank over the integrated peer network restarted at the user,
// biased by the active context (workpad members get restart mass too),
// excluding existing connections. The rank vector is memoized per user
// for the lifetime of the snapshot, so only a user's first request runs
// the power iteration.
func (e *Engine) RecommendPeers(userID string, k int) ([]PeerRecommendation, error) {
	recs, err := e.RankPeers(userID, k)
	if err != nil {
		return nil, err
	}
	return recs, e.ExplainPeers(userID, recs)
}

// RankPeers is RecommendPeers without the explanations: the top k peers
// with their scores, Evidences and LikelySessions left empty. Explaining
// one peer costs more than ranking them all, so a pager ranks one past
// its page to learn whether a next page exists and explains only the
// peers it serves (ExplainPeers). Candidates Explain would refuse — a
// user the store does not hold — are never ranked.
func (e *Engine) RankPeers(userID string, k int) ([]PeerRecommendation, error) {
	me := e.peerGraph.Lookup(userID)
	if me == graph.Invalid {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	pr := e.personalizedRankFor(userID, me)

	skip := map[graph.NodeID]bool{me: true}
	for _, c := range e.store.ConnectionsOf(userID) {
		if id := e.peerGraph.Lookup(c); id != graph.Invalid {
			skip[id] = true
		}
	}
	top := graph.TopK(pr, k, skip)
	recs := make([]PeerRecommendation, 0, len(top))
	if !e.store.HasUser(userID) {
		return recs, nil
	}
	for _, id := range top {
		n, err := e.peerGraph.Node(id)
		if err != nil || pr[id] == 0 || !e.store.HasUser(n.Key) {
			continue
		}
		recs = append(recs, PeerRecommendation{UserID: n.Key, Score: pr[id]})
	}
	return recs, nil
}

// ExplainPeers fills in the evidences and likely sessions of peers
// ranked by RankPeers, in place.
func (e *Engine) ExplainPeers(userID string, recs []PeerRecommendation) error {
	for i := range recs {
		ex, err := e.Explain(userID, recs[i].UserID)
		if err != nil {
			return err
		}
		recs[i].Evidences = ex.Evidences
		recs[i].LikelySessions = e.likelySessions(recs[i].UserID, 3)
	}
	return nil
}

// personalizedRankFor returns the user's personalized PageRank over the
// integrated peer network, memoized per snapshot (bounded, computed on
// first request). The restart bias comes from the snapshot's workpad
// table, so the memoized value is a pure function of (snapshot, user):
// misses compute outside the memo lock on a pooled workspace, concurrent
// first requests for different users run in parallel, and two racing
// computes for the same user produce identical results (the later store
// simply overwrites).
func (e *Engine) personalizedRankFor(userID string, me graph.NodeID) []float64 {
	e.pprMu.Lock()
	pr, ok := e.pprMemo[userID]
	e.pprMu.Unlock()
	if ok {
		return pr
	}

	restart := map[graph.NodeID]float64{me: 1}
	// Context bias: users pinned on the active workpad (as of the
	// snapshot) pull the walk toward their neighborhoods.
	row, _ := e.ctx.get(userID)
	for _, ref := range row.pins {
		if id := e.peerGraph.Lookup(ref); id != graph.Invalid {
			restart[id] = 0.5
		}
	}
	ws, _ := e.pprPool.Get().(*graph.PPRWorkspace)
	if ws == nil {
		ws = &graph.PPRWorkspace{}
	}
	pr = e.peerGraph.PersonalizedPageRankWith(ws, restart, graph.PageRankOptions{})
	e.pprPool.Put(ws)

	e.pprMu.Lock()
	if e.pprMemo != nil {
		if len(e.pprMemo) >= pprMemoMax {
			//lint:allow snapshotcheck pprMemo is a pprMu-guarded memo cache, not part of the published snapshot
			e.pprMemo = make(map[string][]float64, pprMemoMax)
		}
		//lint:allow snapshotcheck pprMemo is a pprMu-guarded memo cache, not part of the published snapshot
		e.pprMemo[userID] = pr
	}
	e.pprMu.Unlock()
	return pr
}

// likelySessions predicts the sessions a user will attend: sessions
// already checked into, then sessions whose content matches the user's
// context, scored run against run from the snapshot's session table.
func (e *Engine) likelySessions(userID string, k int) []string {
	out := e.store.SessionsAttendedBy(userID)
	if len(out) >= k {
		return out[:k]
	}
	ctx := e.ContextQuery(userID)
	if ctx == nil {
		return out
	}
	seen := toSet(out)
	type ss struct {
		id    string
		score float64
	}
	h := topk.New[ss](k-len(out), func(a, b ss) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	})
	e.sessions.each(func(sid string, run *textindex.CompiledVector) {
		if seen[sid] {
			return
		}
		if sim := run.Cosine(ctx); sim > 0 {
			h.Push(ss{sid, sim})
		}
	})
	for _, s := range h.Sorted() {
		out = append(out, s.id)
	}
	return out
}

// SessionSuggestion is a scored session with the social signal behind it.
type SessionSuggestion struct {
	SessionID string
	Score     float64
	// FollowedAttendees are users the requester follows (or is connected
	// to) who checked in — the §1.1 trigger "a few of the researchers he
	// is following are checking-in into a session".
	FollowedAttendees []string
}

// SuggestSessions ranks the sessions of a conference for a user by
// combining the social signal (followed/connected attendees) with
// content similarity to the active context: the session's run from the
// snapshot against the user's context run.
func (e *Engine) SuggestSessions(userID, confID string, k int) ([]SessionSuggestion, error) {
	if !e.store.HasUser(userID) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	circle := toSet(e.store.Following(userID))
	for _, c := range e.store.ConnectionsOf(userID) {
		circle[c] = true
	}
	ctx := e.ContextQuery(userID)
	attended := toSet(e.store.SessionsAttendedBy(userID))

	h := topk.New[SessionSuggestion](k, func(a, b SessionSuggestion) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.SessionID < b.SessionID
	})
	for _, sid := range e.store.SessionsOf(confID) {
		if attended[sid] {
			continue
		}
		var followed []string
		for _, a := range e.store.Attendees(sid) {
			if circle[a] {
				followed = append(followed, a)
			}
		}
		run, _ := e.sessions.get(sid)
		score := 0.5*float64(len(followed)) + run.Cosine(ctx)
		if score > 0 {
			h.Push(SessionSuggestion{SessionID: sid, Score: score, FollowedAttendees: followed})
		}
	}
	return h.Sorted(), nil
}

// ResourceRecommendation is a suggested paper/presentation.
type ResourceRecommendation struct {
	DocID string
	Score float64
}

// RecommendResources suggests documents for a user. With useContext the
// ranking is driven by the active-workpad context vector; without it (the
// E4 ablation) only the collaborative signal and popularity act.
func (e *Engine) RecommendResources(userID string, k int, useContext bool) ([]ResourceRecommendation, error) {
	if !e.store.HasUser(userID) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	scores := map[string]float64{}
	// Collaborative component: objects touched by similar users.
	for _, r := range e.RecommendByCF(userID, 3*k) {
		if kindOfDoc(r.DocID) != "" {
			scores[r.DocID] += 0.5 * r.Score
		}
	}
	if useContext {
		for _, r := range e.searchUserContext(userID, 3*k) {
			scores[r.DocID] += r.Score
		}
	} else {
		// Popularity fallback keeps the no-context arm non-degenerate.
		e.pop.each(func(doc string, n int) {
			scores[doc] += 0.01 * float64(n)
		})
	}
	// Never recommend the user's own content.
	own := toSet(e.store.PapersOfAuthor(userID))
	for _, pr := range e.store.PresentationsOfUser(userID) {
		own[pr] = true
	}
	h := topk.New[ResourceRecommendation](k, func(a, b ResourceRecommendation) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.DocID < b.DocID
	})
	for doc, s := range scores {
		if own[stripDocPrefix(doc)] {
			continue
		}
		h.Push(ResourceRecommendation{DocID: doc, Score: s})
	}
	return h.Sorted(), nil
}

func kindOfDoc(docID string) string {
	for _, p := range []string{DocPaper, DocPresentation, DocQuestion} {
		if len(docID) > len(p) && docID[:len(p)] == p {
			return p
		}
	}
	return ""
}

func stripDocPrefix(docID string) string {
	if k := kindOfDoc(docID); k != "" {
		return docID[len(k):]
	}
	return docID
}

// --- Collaborative filtering ---------------------------------------------------

// CFRecommendation is a collaboratively recommended object.
type CFRecommendation struct {
	DocID string
	Score float64
}

// verbWeight scores one activity verb's contribution to the actor's
// interaction vector: questions/answers/comments weigh more than
// passive check-ins.
var verbWeight = map[string]float64{
	"question": 2, "answer": 2, "comment": 1.5, "checkin": 1, "browse": 0.5,
}

// buildInteractionTables precomputes the collaborative-filtering inputs
// into the snapshot (Builder phase 2) in a single pass over the
// activity stream: per-user interaction vectors, raw object popularity,
// and the stream watermark (evtSeq): the highest sequence this scan
// folded in. Deltas fold the events above it in whatever order they
// arrive; one written after the scan read a higher sequence is missed
// until the next build.
func (e *Engine) buildInteractionTables() {
	vecs := map[string]textindex.Vector{}
	pop := map[string]int{}
	var maxSeq uint64
	for _, ev := range e.store.EventsSince(0, 0) {
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
		applyActivity(vecs, pop, e, ev)
	}
	e.inter.base = vecs
	e.pop.base = pop
	e.evtSeq = maxSeq
}

// applyActivity folds one activity event into interaction vectors and
// popularity counts — shared by the full build and the delta path so
// their arithmetic cannot drift.
func applyActivity(vecs map[string]textindex.Vector, pop map[string]int, e *Engine, ev social.Event) {
	doc := e.docIDForObject(ev.Object)
	if doc == "" {
		return
	}
	pop[doc]++
	w, ok := verbWeight[ev.Verb]
	if !ok || ev.Object == "" {
		return
	}
	v := vecs[ev.Actor]
	if v == nil {
		v = make(textindex.Vector)
		vecs[ev.Actor] = v
	}
	v[doc] += w
}

// docIDForObject maps an event object to an index doc ID when it is a
// recommendable resource. Papers and presentations are tested for
// existence without decoding; a question is decoded for its target.
func (e *Engine) docIDForObject(obj string) string {
	if e.store.HasPaper(obj) {
		return DocPaper + obj
	}
	if e.store.HasPresentation(obj) {
		return DocPresentation + obj
	}
	if q, err := e.store.Question(obj); err == nil {
		// Interacting with a question counts toward its target resource.
		return e.docIDForObject(q.Target)
	}
	return ""
}

// RecommendByCF performs user-based collaborative filtering: cosine
// similarity over interaction vectors, then objects scored by the
// similarity-weighted interactions of the neighbors (paper §2: peer
// networks "support each other ... indirectly through collaborative
// filtering").
func (e *Engine) RecommendByCF(userID string, k int) []CFRecommendation {
	mine, _ := e.inter.get(userID)
	if mine == nil {
		return nil
	}
	type sim struct {
		user string
		s    float64
	}
	simBetter := func(a, b sim) bool {
		if a.s != b.s {
			return a.s > b.s
		}
		return a.user < b.user
	}
	neighbors := topk.New[sim](20, simBetter) // neighborhood size
	e.inter.each(func(u string, v textindex.Vector) {
		if u == userID {
			return
		}
		if s := mine.Cosine(v); s > 0 {
			neighbors.Push(sim{u, s})
		}
	})
	scores := map[string]float64{}
	for _, sm := range neighbors.Sorted() {
		theirs, _ := e.inter.get(sm.user)
		for doc, w := range theirs {
			if mine[doc] > 0 {
				continue // already interacted
			}
			scores[doc] += sm.s * w
		}
	}
	h := topk.New[CFRecommendation](k, cfBetter)
	for doc, s := range scores {
		h.Push(CFRecommendation{DocID: doc, Score: s})
	}
	return h.Sorted()
}

func cfBetter(a, b CFRecommendation) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// RecommendByPopularity is the non-personalized baseline for E10: objects
// ranked by raw interaction count.
func (e *Engine) RecommendByPopularity(userID string, k int) []CFRecommendation {
	mine, _ := e.inter.get(userID)
	h := topk.New[CFRecommendation](k, cfBetter)
	e.pop.each(func(doc string, n int) {
		if mine != nil && mine[doc] > 0 {
			return
		}
		h.Push(CFRecommendation{DocID: doc, Score: float64(n)})
	})
	return h.Sorted()
}

// --- Activity change monitoring (SCENT over the platform) ----------------------

// The verb and target-kind axes of the activity tensor.
var (
	activityVerbs = []string{"checkin", "question", "answer", "comment", "connect", "follow", "browse", "upload"}
	activityKinds = []string{"paper", "presentation", "question", "session", "conference", "user", "other"}
)

// ActivityTensorStream encodes an activity stream as the
// multi-relational tensor stream SCENT monitors (§2.4): the events,
// oldest first, are sliced into epochs of epochEvents events each
// (100 when not positive), and every epoch is an (actor, verb,
// target-kind) count tensor over the users index. An event whose actor
// is not in users or whose verb is not monitored is skipped; kindOf
// classifies each target. It also returns the sketcher the epochs'
// descriptors are taken with. No users, no epochs.
func ActivityTensorStream(events []social.Event, users []string, kindOf func(string) string, epochEvents int) ([]*tensor.Sparse, *tensor.Sketcher, error) {
	if len(users) == 0 {
		return nil, nil, nil
	}
	if epochEvents <= 0 {
		epochEvents = 100
	}
	index := func(xs []string) map[string]int {
		m := make(map[string]int, len(xs))
		for i, x := range xs {
			m[x] = i
		}
		return m
	}
	userIdx, verbIdx, kindIdx := index(users), index(activityVerbs), index(activityKinds)
	shape := []int{len(users), len(activityVerbs), len(activityKinds)}
	var stream []*tensor.Sparse
	cur := tensor.MustSparse(shape...)
	n := 0
	for _, ev := range events {
		ui, ok := userIdx[ev.Actor]
		if !ok {
			continue
		}
		vi, ok := verbIdx[ev.Verb]
		if !ok {
			continue
		}
		_ = cur.Add(1, ui, vi, kindIdx[kindOf(ev.Object)])
		n++
		if n == epochEvents {
			stream = append(stream, cur)
			cur = tensor.MustSparse(shape...)
			n = 0
		}
	}
	if n > 0 {
		stream = append(stream, cur)
	}
	sk, err := tensor.NewSketcher(64, 1213, shape...)
	if err != nil {
		return nil, nil, err
	}
	return stream, sk, nil
}

package core

import (
	"sort"

	"hive/internal/social"
	"hive/internal/summarize"
	"hive/internal/textindex"
	"hive/internal/topk"
)

// Context services (paper §2.1, §2.3): the active workpad defines the
// user's activity context; every search, ranking, preview and digest is
// conditioned on it.

// ContextVector returns the user's context vector: the active workpad
// (every item rendered to text), the user's declared interests, and
// spreading activation over the concept map. Users with no active
// workpad fall back to interests alone.
//
// Vectors for all known users are precomputed into the snapshot by the
// Builder as flat runs (ContextQuery); this builds a fresh map from the
// user's run. Like every other knowledge structure it reflects the store
// as of the snapshot (the paper's offline refresh model). No serving path
// calls it: the context services score against ContextQuery's run.
func (e *Engine) ContextVector(userID string) textindex.Vector {
	if row, ok := e.ctx.get(userID); ok {
		return row.query.Vector()
	}
	return e.computeContextVector(userID)
}

// buildContextVectors precomputes every user's context vector and every
// session's term-frequency vector into the snapshot, as flat runs over
// one term dictionary resolved against the frozen index, so context
// services need no per-request query preparation, kv read or tokenising
// (Builder phase 2; needs the concept map and the frozen index). Each
// distinct workpad item is analysed once however many users pin it; then
// each user's vector is assembled from those analyses plus a concept-map
// activation. Each loop shards across the builder's workers.
func (e *Engine) buildContextVectors() {
	users := make([]*social.User, len(e.users))
	pads := make([][]social.WorkpadItem, len(e.users))
	e.forUsersParallel(func(i int, u string) {
		if usr, err := e.store.User(u); err == nil {
			users[i] = &usr
		}
		if wp, err := e.store.ActiveWorkpad(u); err == nil {
			pads[i] = wp.Items
		}
	})

	type itemKey struct {
		kind social.ItemKind
		ref  string
	}
	itemIdx := map[itemKey]int{}
	var items []itemKey
	padIdx := make([][]int, len(e.users))
	for i, pad := range pads {
		for _, it := range pad {
			k := itemKey{it.Kind, it.Ref}
			j, ok := itemIdx[k]
			if !ok {
				j = len(items)
				itemIdx[k] = j
				items = append(items, k)
			}
			padIdx[i] = append(padIdx[i], j)
		}
	}
	analyses := make([]itemAnalysis, len(items))
	e.forEachParallel(len(items), func(j int) {
		analyses[j] = e.analyzeItem(items[j].kind, items[j].ref)
	})

	// Context vectors first, then session vectors, into one list: the
	// dictionary is their terms and the base's vocabulary, and their runs
	// lie end to end.
	var sessIDs []string
	for _, conf := range e.store.Conferences() {
		sessIDs = append(sessIDs, e.store.SessionsOf(conf)...)
	}
	vecs := make([]textindex.Vector, len(e.users)+len(sessIDs))
	e.forUsersParallel(func(i int, _ string) {
		pad := make([]itemAnalysis, len(padIdx[i]))
		for k, j := range padIdx[i] {
			pad[k] = analyses[j]
		}
		vecs[i] = e.contextVector(users[i], pad)
	})
	e.forEachParallel(len(sessIDs), func(j int) {
		vecs[len(e.users)+j] = e.sessionVector(sessIDs[j])
	})
	var terms []string
	for _, v := range vecs {
		for t := range v {
			terms = append(terms, t)
		}
	}
	e.vecDict = textindex.NewDict(terms, e.seg.Base())
	runs := e.vecDict.CompileAll(vecs)

	e.ctx.base = make(map[string]userContext, len(e.users))
	for i, u := range e.users {
		e.ctx.base[u] = newUserContext(&runs[i], pads[i])
	}
	e.sessions.base = make(map[string]*textindex.CompiledVector, len(sessIDs))
	for j, sid := range sessIDs {
		e.sessions.base[sid] = &runs[len(e.users)+j]
	}
}

// sessionVector is the term-frequency vector of a session's text: its
// title, track and the titles of its papers.
func (e *Engine) sessionVector(sessionID string) textindex.Vector {
	return textindex.TermFrequency(e.entityText(social.ItemSession, sessionID))
}

// newUserContext makes one user's context row from their context run
// and active workpad items. The users pinned on the workpad are
// snapshotted because the peer-recommendation restart bias must come
// from snapshot state: the per-snapshot PageRank memo is then a pure
// function of the user.
func newUserContext(query *textindex.CompiledVector, pad []social.WorkpadItem) userContext {
	var row userContext
	if query.Len() > 0 {
		row.query = query
	}
	for _, item := range pad {
		if item.Kind == social.ItemUser {
			row.pins = append(row.pins, item.Ref)
		}
	}
	return row
}

// computeContextVector derives one user's context vector from the
// store: the one-user path (unknown users, delta repairs).
func (e *Engine) computeContextVector(userID string) textindex.Vector {
	u, err := e.store.User(userID)
	if err != nil {
		return textindex.Vector{}
	}
	var pad []itemAnalysis
	if wp, err := e.store.ActiveWorkpad(userID); err == nil {
		for _, item := range wp.Items {
			pad = append(pad, e.analyzeItem(item.Kind, item.Ref))
		}
	}
	return e.contextVector(&u, pad)
}

// itemAnalysis is what a context vector takes from one workpad item:
// its term frequencies and its top keyphrases, the activation seeds.
type itemAnalysis struct {
	tf    textindex.Vector
	seeds []string
}

// analyzeItem ranks keyphrase seeds only when the snapshot has a concept
// map for them to activate; contextVector drops them otherwise.
func (e *Engine) analyzeItem(kind social.ItemKind, ref string) itemAnalysis {
	text := e.entityText(kind, ref)
	a := itemAnalysis{tf: textindex.TermFrequency(text)}
	if e.concepts.Len() > 0 {
		a.seeds = topSurfaceTerms(text, 3)
	}
	return a
}

// contextVector assembles a user's context vector from their interests
// and the analyses of their active workpad's items, in workpad order.
// A nil user (not in the store) has the empty context.
func (e *Engine) contextVector(u *social.User, pad []itemAnalysis) textindex.Vector {
	v := make(textindex.Vector)
	if u == nil {
		return v
	}
	for _, t := range textindex.Terms(joinStrings(u.Interests)) {
		v[t] += 1
	}
	var seeds []string
	for _, it := range pad {
		v.Add(it.tf, 2) // workpad items dominate the context
		seeds = append(seeds, it.seeds...)
	}
	// Propagate through the concept map so related-but-unmentioned
	// concepts enter the context (§2.3 adaptation strategies).
	if e.concepts.Len() > 0 && len(seeds) > 0 {
		act := e.concepts.Activate(seeds)
		cv := conceptVector(act)
		v.Add(cv, 0.5)
	}
	return v
}

// conceptVector stems an activation field into a unit term vector.
// Concepts that stem alike add up, and the norm sums, in sorted order,
// so one store's context vectors come out bit for bit the same on every
// build.
func conceptVector(activation map[string]float64) textindex.Vector {
	concepts := make([]string, 0, len(activation))
	for term := range activation {
		concepts = append(concepts, term)
	}
	sort.Strings(concepts)
	v := make(textindex.Vector, len(activation))
	for _, term := range concepts {
		if w := activation[term]; w > 0 {
			v[textindex.Stem(term)] += w
		}
	}
	// Normalize so activation cannot swamp the direct workpad terms.
	if n := textindex.VectorRun(v).Norm(); n > 0 {
		for t := range v {
			v[t] /= n
		}
	}
	return v
}

func topSurfaceTerms(text string, k int) []string {
	kps := textindex.ExtractKeyphrases(text, k)
	out := make([]string, 0, len(kps))
	for _, kp := range kps {
		out = append(out, kp.Term)
	}
	return out
}

func joinStrings(xs []string) string {
	out := ""
	for _, x := range xs {
		out += x + ". "
	}
	return out
}

// SearchResult is a scored document hit.
type SearchResult struct {
	DocID string
	Score float64
}

// Search runs plain BM25 keyword search over all indexed content,
// served from the segmented read view (base + delta overlay).
func (e *Engine) Search(query string, k int) []SearchResult {
	return toSearchResults(e.seg.Search(query, k))
}

// SearchWithContext blends BM25 relevance with similarity to the user's
// current context: score = bm25 × (1 + ctxWeight × cosine(doc, context)).
// This is the §2.3 "filter, summarize, and rank alternatives and adapt
// according to their relevance" service. Every sum runs in a fixed
// order, so one snapshot asked twice answers bit for bit the same.
func (e *Engine) SearchWithContext(userID, query string, k int) []SearchResult {
	return RerankByContext(e.seg.Search(query, 4*k), e.ContextQuery(userID), k,
		func(string) *textindex.Segmented { return e.seg })
}

// RerankByContext is SearchWithContext's re-rank over BM25 hits: each
// hit's score is scaled by its cosine to the compiled context cq, scored
// in the view segOf names for it (nil: similarity 0), and the top k
// return, ties broken on DocID. A nil cq keeps the first k hits as they
// are. The sharded coordinator calls it with the owning shard's view.
func RerankByContext(base []textindex.Result, cq *textindex.CompiledVector, k int, segOf func(docID string) *textindex.Segmented) []SearchResult {
	if cq == nil {
		return toSearchResults(clip(base, k))
	}
	const ctxWeight = 1.0
	h := topk.New[textindex.Result](k, func(a, b textindex.Result) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.DocID < b.DocID
	})
	for _, r := range base {
		sim := 0.0
		if seg := segOf(r.DocID); seg != nil {
			sim = seg.DocCosine(r.DocID, cq)
		}
		h.Push(textindex.Result{DocID: r.DocID, Score: r.Score * (1 + ctxWeight*sim)})
	}
	return toSearchResults(h.Sorted())
}

// Preview extracts the k most context-relevant snippets from a document
// (paper §2.3(a): "relevant snippet extraction from documents"). The
// docID uses the index namespace (e.g. "pres/<id>", "paper/<id>").
func (e *Engine) Preview(userID, docID string, k int) ([]textindex.Snippet, error) {
	text, err := e.seg.Text(docID)
	if err != nil {
		return nil, err
	}
	return textindex.ExtractSnippets(text, e.ContextQuery(userID), k), nil
}

// UpdateDigest produces the size-constrained summary of the user's feed
// (the "scheduled update reports" of §2.3, summarized with AlphaSum).
// Columns: actor, verb, target kind; the target-kind column generalizes
// through a small entity-type hierarchy.
func (e *Engine) UpdateDigest(userID string, budget int) (*summarize.Summary, error) {
	return e.DigestOfEvents(e.store.Feed(userID, 0), budget, nil)
}

// DigestOfEvents summarizes a pre-assembled feed with AlphaSum. kindOf
// overrides the target-kind classifier (nil = classify against this
// snapshot's store); a sharded coordinator passes the merged cross-shard
// feed plus a classifier that probes every shard, since an event's
// target may live on a different shard than the event.
func (e *Engine) DigestOfEvents(feed []social.Event, budget int, kindOf func(string) string) (*summarize.Summary, error) {
	if kindOf == nil {
		kindOf = e.targetKind
	}
	tab := &summarize.Table{Columns: []string{"actor", "verb", "target"}}
	for _, ev := range feed {
		tab.Rows = append(tab.Rows, []string{ev.Actor, ev.Verb, kindOf(ev.Object)})
	}
	h, err := summarize.NewHierarchy(map[string]string{
		"paper": "content", "presentation": "content", "question": "content",
		"session": "venue", "conference": "venue",
		"user": "people", "other": summarize.Root,
		"content": summarize.Root, "venue": summarize.Root, "people": summarize.Root,
	})
	if err != nil {
		return nil, err
	}
	s := summarize.NewSummarizer(tab.Columns, map[string]*summarize.Hierarchy{"target": h})
	return s.Greedy(tab, budget)
}

// TargetKind classifies an entity ID into the digest type hierarchy
// ("paper", "session", "user", ... or "other") against this snapshot's
// store.
func (e *Engine) TargetKind(entity string) string { return e.targetKind(entity) }

// targetKind classifies an entity ID into the digest type hierarchy.
func (e *Engine) targetKind(entity string) string {
	if entity == "" {
		return "other"
	}
	if _, err := e.store.Paper(entity); err == nil {
		return "paper"
	}
	if _, err := e.store.Presentation(entity); err == nil {
		return "presentation"
	}
	if _, err := e.store.Question(entity); err == nil {
		return "question"
	}
	if _, err := e.store.Session(entity); err == nil {
		return "session"
	}
	if _, err := e.store.Conference(entity); err == nil {
		return "conference"
	}
	if _, err := e.store.User(entity); err == nil {
		return "user"
	}
	return "other"
}

func toSearchResults(rs []textindex.Result) []SearchResult {
	out := make([]SearchResult, len(rs))
	for i, r := range rs {
		out[i] = SearchResult{DocID: r.DocID, Score: r.Score}
	}
	return out
}

func clip(rs []textindex.Result, k int) []textindex.Result {
	if k > 0 && len(rs) > k {
		return rs[:k]
	}
	return rs
}

// WorkpadOf returns the user's active workpad items (empty when none).
func (e *Engine) WorkpadOf(userID string) []social.WorkpadItem {
	wp, err := e.store.ActiveWorkpad(userID)
	if err != nil {
		return nil
	}
	return wp.Items
}

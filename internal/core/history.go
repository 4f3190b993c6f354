package core

import (
	"fmt"
	"sort"

	"hive/internal/community"
	"hive/internal/graph"
	"hive/internal/rdf"
	"hive/internal/social"
	"hive/internal/textindex"
	"hive/internal/topk"
)

// Services completing Table 1: personal activity history search,
// relationship discovery between peers and *other resources*, ranked
// knowledge-base path explanations (R2DF), and community tracking.

// HistoryEntry is one matched activity record.
type HistoryEntry struct {
	Event social.Event
	// Score is the relevance of the event's object to the query (1 for
	// verb/object literal matches).
	Score float64
}

// SearchHistory searches a user's own activity history ("search and
// visualize personal, group, or community activity history based on
// current context"). The query matches event verbs, object IDs, and the
// text of object entities; an empty query returns the full history. When
// useContext is set, results are additionally ranked by similarity to
// the active workpad context.
func (e *Engine) SearchHistory(userID, query string, useContext bool, limit int) ([]HistoryEntry, error) {
	if !e.store.HasUser(userID) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	// Both cosines are run products, summed in term order, so equal
	// histories rank the same on every call and every build.
	qv := textindex.TextRun(query)
	var ctx *textindex.CompiledVector
	if useContext {
		ctx = e.ContextQuery(userID)
	}
	h := topk.New[HistoryEntry](limit, func(a, b HistoryEntry) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Event.Seq < b.Event.Seq
	})
	for _, ev := range e.store.EventsByActor(userID) {
		var text *textindex.CompiledVector // the object's text, rendered once
		objectText := func() *textindex.CompiledVector {
			if text == nil {
				text = textindex.TextRun(e.entityText(e.itemKindOf(ev.Object), ev.Object))
			}
			return text
		}
		score := 0.0
		if query == "" {
			score = 1
		} else {
			if ev.Verb == query || ev.Object == query {
				score = 1
			} else if ev.Object != "" {
				score = objectText().Cosine(qv)
			}
		}
		if score <= 0 {
			continue
		}
		if useContext && ev.Object != "" {
			score += objectText().Cosine(ctx)
		}
		h.Push(HistoryEntry{Event: ev, Score: score})
	}
	return h.Sorted(), nil
}

// itemKindOf classifies an entity ID into a workpad item kind for text
// rendering.
func (e *Engine) itemKindOf(entity string) social.ItemKind {
	switch e.targetKind(entity) {
	case "paper":
		return social.ItemPaper
	case "presentation":
		return social.ItemPresentation
	case "question":
		return social.ItemQuestion
	case "session":
		return social.ItemSession
	case "user":
		return social.ItemUser
	}
	return social.ItemKind("")
}

// ResourceEvidence explains the relationship between a user and a
// resource ("relationship discovery and explanation among peers and
// other resources", Table 1).
type ResourceEvidence struct {
	Kind        EvidenceKind
	Strength    float64
	Description string
}

// Resource-relationship evidence kinds (beyond the user-user classes).
const (
	EvAuthored EvidenceKind = "authored"
	EvCited    EvidenceKind = "cited-by-user"
	EvBrowsed  EvidenceKind = "interacted"
	EvTopical  EvidenceKind = "topical-match"
)

// ExplainResource relates a user to a paper/presentation/session.
func (e *Engine) ExplainResource(userID, entity string) ([]ResourceEvidence, error) {
	if !e.store.HasUser(userID) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	var evs []ResourceEvidence
	add := func(kind EvidenceKind, s float64, desc string) {
		if s > 1 {
			s = 1
		}
		if s > 0 {
			evs = append(evs, ResourceEvidence{Kind: kind, Strength: s, Description: desc})
		}
	}
	// Authorship / ownership.
	for _, o := range e.ownersOf(entity) {
		if o == userID {
			add(EvAuthored, 1, "user authored/owns this resource")
			break
		}
	}
	// Citation from the user's papers to this paper (directly or
	// transitively through the citation graph).
	if _, err := e.store.Paper(entity); err == nil {
		for _, pid := range e.store.PapersOfAuthor(userID) {
			if ok, d := cites(e.citationNet, pid, entity, 3); ok {
				add(EvCited, 1/float64(d), fmt.Sprintf("user's paper %s cites it (distance %d)", pid, d))
				break
			}
		}
	}
	// Interaction history.
	n := 0
	for _, ev := range e.store.EventsByActor(userID) {
		if ev.Object == entity {
			n++
		}
	}
	if n > 0 {
		add(EvBrowsed, 0.3+0.2*float64(n), fmt.Sprintf("%d prior interaction(s)", n))
	}
	// Topical similarity to the user's current context.
	text := textindex.TextRun(e.entityText(e.itemKindOf(entity), entity))
	if sim := text.Cosine(e.ContextQuery(userID)); sim > 0.05 {
		add(EvTopical, sim, fmt.Sprintf("matches active context (%.2f)", sim))
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Strength != evs[j].Strength {
			return evs[i].Strength > evs[j].Strength
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs, nil
}

// cites reports whether paper a reaches paper b in the citation graph
// within maxHops, and the distance.
func cites(g *graph.Graph, a, b string, maxHops int) (bool, int) {
	na, nb := g.Lookup(a), g.Lookup(b)
	if na == graph.Invalid || nb == graph.Invalid {
		return false, 0
	}
	found, dist := false, 0
	g.BFS(na, func(id graph.NodeID, depth int) bool {
		if depth > maxHops {
			return false
		}
		if id == nb && depth > 0 {
			found, dist = true, depth
			return false
		}
		return true
	})
	return found, dist
}

// KnowledgePaths returns the top-k ranked paths between two entities in
// the weighted RDF knowledge base (R2DF [11]) — the literature-level
// explanations of Figure 2 ("the chair of his session is one of the
// authors whose paper he had cited").
func (e *Engine) KnowledgePaths(a, b string, k int) []rdf.RankedPath {
	return e.kb.RankedPaths(a, b, k, rdf.PathOptions{MaxLength: 4, Undirected: true})
}

// CommunityMatch describes how one of the engine's communities evolved
// relative to a previous engine snapshot.
type CommunityMatch struct {
	PrevIndex int
	NextIndex int // -1 when dissolved
	Jaccard   float64
}

// TrackCommunities matches this engine's communities against a previous
// snapshot's ("community discovery and *tracking*", Table 1) — e.g. the
// same conference series one year later.
func (e *Engine) TrackCommunities(prev *Engine) []CommunityMatch {
	keyOf := func(eng *Engine) func(graph.NodeID) string {
		return func(id graph.NodeID) string {
			n, err := eng.peerGraph.Node(id)
			if err != nil {
				return ""
			}
			return n.Key
		}
	}
	matches := community.Track(prev.communities, e.communities, keyOf(prev), keyOf(e))
	out := make([]CommunityMatch, len(matches))
	for i, m := range matches {
		out[i] = CommunityMatch{PrevIndex: m.PrevIndex, NextIndex: m.NextIndex, Jaccard: m.Jaccard}
	}
	return out
}

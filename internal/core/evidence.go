package core

import (
	"fmt"
	"sort"

	"hive/internal/biblio"
	"hive/internal/graph"
	"hive/internal/textindex"
)

// EvidenceKind enumerates the relationship evidence classes of paper §2.
type EvidenceKind string

// The nine evidence classes Hive uses "for discovering and explaining
// relationships between individuals".
const (
	EvProfile     EvidenceKind = "profile-interests"
	EvAffiliation EvidenceKind = "affiliation-groups"
	EvCoauthor    EvidenceKind = "coauthorship"
	EvCitation    EvidenceKind = "citation"
	EvFollow      EvidenceKind = "following"
	EvConference  EvidenceKind = "conference-participation"
	EvSession     EvidenceKind = "session-participation"
	EvQA          EvidenceKind = "question-comment-answer"
	EvContent     EvidenceKind = "content-similarity"
	EvActivity    EvidenceKind = "activity-similarity"
)

// Evidence is one discovered relationship evidence with a human-readable
// explanation (the right column of Figure 2).
type Evidence struct {
	Kind        EvidenceKind
	Strength    float64 // in [0, 1]
	Description string
}

// Explanation is the full relationship picture between two users.
type Explanation struct {
	A, B      string
	Evidences []Evidence
	// Score fuses the evidence strengths (weighted sum normalized to
	// [0, 1]).
	Score float64
	// Paths are the best connecting paths in the integrated peer
	// network, as user-ID sequences (up to 3).
	Paths [][]string
}

// evidenceWeights is the fusion weight per evidence class. Direct
// scholarly ties dominate; ambient similarities contribute less.
var evidenceWeights = map[EvidenceKind]float64{
	EvCoauthor:    1.0,
	EvCitation:    0.9,
	EvQA:          0.8,
	EvConference:  0.4,
	EvSession:     0.6,
	EvFollow:      0.7,
	EvProfile:     0.5,
	EvAffiliation: 0.4,
	EvContent:     0.6,
	EvActivity:    0.5,
}

// Explain discovers and explains the relationship between two users
// (Figure 2: "relationships between the users ... are shown on the right
// column").
func (e *Engine) Explain(a, b string) (Explanation, error) {
	ua, err := e.store.User(a)
	if err != nil {
		return Explanation{}, fmt.Errorf("%w: %s", ErrUnknownUser, a)
	}
	ub, err := e.store.User(b)
	if err != nil {
		return Explanation{}, fmt.Errorf("%w: %s", ErrUnknownUser, b)
	}

	var evs []Evidence
	add := func(kind EvidenceKind, strength float64, desc string) {
		if strength > 1 {
			strength = 1
		}
		if strength > 0 {
			evs = append(evs, Evidence{Kind: kind, Strength: strength, Description: desc})
		}
	}

	// Profile and declared interests.
	shared := intersect(ua.Interests, ub.Interests)
	if len(shared) > 0 {
		add(EvProfile, float64(len(shared))/float64(maxLen(ua.Interests, ub.Interests)),
			fmt.Sprintf("shared interests: %v", shared))
	}
	// Affiliation and groups.
	if ua.Affiliation != "" && ua.Affiliation == ub.Affiliation {
		add(EvAffiliation, 1, "same affiliation: "+ua.Affiliation)
	} else if g := intersect(ua.Groups, ub.Groups); len(g) > 0 {
		add(EvAffiliation, 0.5, fmt.Sprintf("shared groups: %v", g))
	}
	// Co-authorship (direct or short path).
	if d := biblio.CoauthorDistance(e.coauthLayer, a, b, 3); d == 1 {
		w := 0.0
		if ea, ok := e.coauthLayer.EdgeBetween(e.coauthLayer.Lookup(a), e.coauthLayer.Lookup(b), biblio.EdgeCoauthor); ok {
			w = ea.Weight
		}
		add(EvCoauthor, 0.6+0.1*w, fmt.Sprintf("co-authored %.0f paper(s)", w))
	} else if d > 1 {
		add(EvCoauthor, 1/float64(d+1), fmt.Sprintf("co-authorship distance %d", d))
	}
	// Citation: direct both ways, then indirect.
	if n := biblio.AuthorCitesAuthor(e.papers, a, b); n > 0 {
		add(EvCitation, 0.5+0.1*float64(n), fmt.Sprintf("%s cites %s's work %d time(s)", a, b, n))
	}
	if n := biblio.AuthorCitesAuthor(e.papers, b, a); n > 0 {
		add(EvCitation, 0.5+0.1*float64(n), fmt.Sprintf("%s cites %s's work %d time(s)", b, a, n))
	}
	if refs := biblio.SharedReferences(e.papers, a, b); len(refs) > 0 {
		add(EvCitation, 0.2+0.05*float64(len(refs)),
			fmt.Sprintf("cite %d common paper(s)", len(refs)))
	}
	// Online following.
	if e.store.FollowsUser(a, b) {
		add(EvFollow, 0.8, a+" follows "+b)
	}
	if e.store.FollowsUser(b, a) {
		add(EvFollow, 0.8, b+" follows "+a)
	}
	// Conference participation.
	confsA := e.conferencesOf(a)
	confsB := e.conferencesOf(b)
	sameConf, sameSeries := 0, 0
	seriesA := map[string]bool{}
	for c, series := range confsA {
		if _, ok := confsB[c]; ok {
			sameConf++
		}
		seriesA[series] = true
	}
	for c, series := range confsB {
		if _, ok := confsA[c]; !ok && seriesA[series] {
			sameSeries++
		}
	}
	if sameConf > 0 {
		add(EvConference, 0.3*float64(sameConf), fmt.Sprintf("attended %d conference(s) together", sameConf))
	} else if sameSeries > 0 {
		add(EvConference, 0.15, "attend the same conference series in different years")
	}
	// Session participation.
	sessA := e.store.SessionsAttendedBy(a)
	sessB := toSet(e.store.SessionsAttendedBy(b))
	sameSess := 0
	for _, s := range sessA {
		if sessB[s] {
			sameSess++
		}
	}
	if sameSess > 0 {
		add(EvSession, 0.4*float64(sameSess), fmt.Sprintf("checked into %d session(s) together", sameSess))
	}
	// Reciprocal Q&A/comment activity.
	if n := e.qaInteractions(a, b); n > 0 {
		add(EvQA, 0.4+0.2*float64(n), fmt.Sprintf("%d question/answer/comment exchange(s)", n))
	}
	// User-provided content similarity.
	if sim := e.contentSimilarity(a, b); sim > 0.05 {
		add(EvContent, sim, fmt.Sprintf("uploaded content similarity %.2f", sim))
	}
	// Activity similarity (browsing/commenting the same objects).
	if sim := e.activitySimilarity(a, b); sim > 0.05 {
		add(EvActivity, sim, fmt.Sprintf("activity overlap %.2f", sim))
	}

	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Strength != evs[j].Strength {
			return evs[i].Strength > evs[j].Strength
		}
		return evs[i].Kind < evs[j].Kind
	})

	ex := Explanation{A: a, B: b, Evidences: evs, Score: FuseWeightedSum(evs)}
	// Connecting paths over the integrated peer network.
	na, nb := e.peerGraph.Lookup(a), e.peerGraph.Lookup(b)
	if na != graph.Invalid && nb != graph.Invalid {
		paths, err := e.peerGraph.KShortestPaths(na, nb, 3, graph.InverseWeightCost)
		if err == nil {
			for _, p := range paths {
				var keys []string
				for _, id := range p.Nodes {
					n, err := e.peerGraph.Node(id)
					if err == nil {
						keys = append(keys, n.Key)
					}
				}
				ex.Paths = append(ex.Paths, keys)
			}
		}
	}
	return ex, nil
}

// FuseWeightedSum combines evidence by weight-normalized sum — the
// default fusion rule.
func FuseWeightedSum(evs []Evidence) float64 {
	var num, den float64
	for _, ev := range evs {
		w := evidenceWeights[ev.Kind]
		num += w * ev.Strength
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den * normalizeCount(len(evs))
}

// normalizeCount dampens single-evidence relationships: many independent
// evidences make a relationship more credible.
func normalizeCount(n int) float64 {
	switch {
	case n <= 0:
		return 0
	case n == 1:
		return 0.6
	case n == 2:
		return 0.85
	default:
		return 1
	}
}

func (e *Engine) conferencesOf(u string) map[string]string {
	out := map[string]string{}
	for _, s := range e.store.SessionsAttendedBy(u) {
		if sess, err := e.store.Session(s); err == nil {
			series := ""
			if c, err := e.store.Conference(sess.ConferenceID); err == nil {
				series = c.Series
			}
			out[sess.ConferenceID] = series
		}
	}
	// Publishing at a conference also counts as participation.
	for _, pid := range e.store.PapersOfAuthor(u) {
		if p, err := e.store.Paper(pid); err == nil && p.ConferenceID != "" {
			series := ""
			if c, err := e.store.Conference(p.ConferenceID); err == nil {
				series = c.Series
			}
			out[p.ConferenceID] = series
		}
	}
	return out
}

// qaInteractions counts directed Q&A/comment exchanges between two users.
func (e *Engine) qaInteractions(a, b string) int {
	n := 0
	count := func(asker, owner string) {
		for _, qID := range e.store.QuestionsBy(asker) {
			q, err := e.store.Question(qID)
			if err != nil {
				continue
			}
			for _, o := range e.ownersOf(q.Target) {
				if o == owner {
					n++
				}
			}
			for _, aID := range e.store.AnswersTo(qID) {
				ans, err := e.store.Answer(aID)
				if err == nil && ans.Author == owner {
					n++
				}
			}
		}
	}
	count(a, b)
	count(b, a)
	return n
}

// contentSimilarity compares the users' uploaded content (presentations
// plus authored papers) by TF-IDF cosine, summed in term order.
func (e *Engine) contentSimilarity(a, b string) float64 {
	return e.userContentVector(a).Cosine(e.userContentVector(b))
}

// userContentVector returns the snapshot's precomputed content run for
// a user (computed on the spot only for users outside the snapshot).
func (e *Engine) userContentVector(u string) *textindex.CompiledVector {
	if v, ok := e.content.get(u); ok {
		return v
	}
	return e.vecDict.Compile(e.computeUserContentVector(u))
}

// buildUserContentVectors precomputes every user's uploaded-content
// TF-IDF vector into the snapshot as a run over the term dictionary
// (Builder phase 2; reads the frozen index's forward vectors, after the
// context stage made the dictionary), sharding the per-user loop across
// the builder's workers.
func (e *Engine) buildUserContentVectors() {
	vecs := make([]textindex.Vector, len(e.users))
	e.forUsersParallel(func(i int, u string) {
		vecs[i] = e.computeUserContentVector(u)
	})
	runs := e.vecDict.CompileAll(vecs)
	e.content.base = make(map[string]*textindex.CompiledVector, len(e.users))
	for i, u := range e.users {
		e.content.base[u] = &runs[i]
	}
}

func (e *Engine) computeUserContentVector(u string) textindex.Vector {
	v := make(textindex.Vector)
	for _, prID := range e.store.PresentationsOfUser(u) {
		if dv, err := e.seg.TFIDFVector(DocPresentation + prID); err == nil {
			v.Add(dv, 1)
		}
	}
	for _, pid := range e.store.PapersOfAuthor(u) {
		if dv, err := e.seg.TFIDFVector(DocPaper + pid); err == nil {
			v.Add(dv, 1)
		}
	}
	return v
}

// activitySimilarity is the Jaccard overlap of the entities two users
// acted upon in the activity stream.
func (e *Engine) activitySimilarity(a, b string) float64 {
	oa := e.objectsTouched(a)
	ob := e.objectsTouched(b)
	if len(oa) == 0 || len(ob) == 0 {
		return 0
	}
	inter := 0
	for o := range oa {
		if ob[o] {
			inter++
		}
	}
	union := len(oa) + len(ob) - inter
	return float64(inter) / float64(union)
}

func (e *Engine) objectsTouched(u string) map[string]bool {
	out := map[string]bool{}
	for _, ev := range e.store.EventsByActor(u) {
		if ev.Object != "" {
			out[ev.Object] = true
		}
	}
	return out
}

func intersect(a, b []string) []string {
	set := toSet(a)
	var out []string
	for _, x := range b {
		if set[x] {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func maxLen(a, b []string) int {
	if len(a) > len(b) {
		return len(a)
	}
	if len(b) == 0 {
		return 1
	}
	return len(b)
}

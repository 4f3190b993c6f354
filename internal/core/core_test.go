package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hive/internal/social"
	"hive/internal/tensor"
	"hive/internal/workload"
)

// testClock ticks one second per reading; concurrent writers may share it.
func testClock() social.Clock {
	var secs atomic.Int64
	secs.Store(1363000000)
	return func() time.Time {
		return time.Unix(secs.Add(1), 0)
	}
}

// zachWorld builds the §1.1 scenario by hand: Zach, his advisor, Ann and
// Aaron around EDBT'13.
func zachWorld(t *testing.T) (*social.Store, *Engine) {
	t.Helper()
	st, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	users := []social.User{
		{ID: "zach", Name: "Zach", Affiliation: "ASU", Interests: []string{"social media", "graphs"}},
		{ID: "advisor", Name: "Advisor", Affiliation: "ASU", Interests: []string{"graphs"}},
		{ID: "ann", Name: "Ann", Affiliation: "UniTo", Interests: []string{"community detection"}},
		{ID: "aaron", Name: "Aaron", Affiliation: "MPI", Interests: []string{"social media"}},
		{ID: "carl", Name: "Carl", Affiliation: "NUS", Interests: []string{"graphs"}},
	}
	for _, u := range users {
		if err := st.PutUser(u); err != nil {
			t.Fatal(err)
		}
	}
	_ = st.PutConference(social.Conference{ID: "edbt13", Name: "EDBT 2013", Series: "edbt", Year: 2013})
	_ = st.PutConference(social.Conference{ID: "edbt12", Name: "EDBT 2012", Series: "edbt", Year: 2012})
	_ = st.PutSession(social.Session{ID: "s-graphs", ConferenceID: "edbt13",
		Title: "Large scale graph processing", Track: "graphs", Chair: "ann", Hashtag: "#graphs13"})
	_ = st.PutSession(social.Session{ID: "s-social", ConferenceID: "edbt13",
		Title: "Social media and networks", Track: "social", Chair: "aaron"})

	papers := []social.Paper{
		{ID: "p-ann10", Title: "Community detection in evolving networks", Authors: []string{"ann"},
			Abstract: "We detect communities in evolving social networks.", Year: 2010},
		{ID: "p-advisor", Title: "Graph partitioning methods", Authors: []string{"advisor", "carl"},
			Abstract: "Partitioning large graphs for distributed processing.", Year: 2009},
		{ID: "p-zach", Title: "Diffusion of influence in social media graphs", Authors: []string{"zach", "advisor"},
			Abstract:     "Influence diffusion in social media interaction graphs with community structure.",
			ConferenceID: "edbt13", SessionID: "s-social", Citations: []string{"p-ann10", "p-advisor"}},
		{ID: "p-carl", Title: "Scalable graph traversal on clusters", Authors: []string{"carl"},
			Abstract:     "Traversal of massive graphs with partitioning and communication optimizations.",
			ConferenceID: "edbt13", SessionID: "s-graphs", Citations: []string{"p-advisor", "p-ann10"}},
	}
	for _, p := range papers {
		if err := st.PutPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	_ = st.PutPresentation(social.Presentation{ID: "pres-zach", PaperID: "p-zach", Owner: "zach",
		Title: "Diffusion slides", Text: "Influence diffusion in social media graphs. Community structure matters. Equation three defines the diffusion kernel."})

	_ = st.Connect("zach", "ann")
	_ = st.Follow("zach", "ann")
	_ = st.Follow("zach", "carl")
	_ = st.Follow("advisor", "zach")
	_ = st.CheckIn("s-graphs", "ann")
	_ = st.CheckIn("s-graphs", "carl")
	_ = st.CheckIn("s-social", "zach")
	_ = st.CheckIn("s-social", "aaron")
	_ = st.AskQuestion(social.Question{ID: "q-aaron", Author: "aaron", Target: "pres-zach",
		Text: "Is there a typo in equation three of the diffusion kernel?"})
	_ = st.PostAnswer(social.Answer{ID: "ans-zach", QuestionID: "q-aaron", Author: "zach",
		Text: "Yes, fixed. Thanks for catching the diffusion kernel typo."})
	_ = st.PutWorkpad(social.Workpad{ID: "w-zach", Owner: "zach", Name: "session", Items: []social.WorkpadItem{
		{Kind: social.ItemUser, Ref: "ann"},
		{Kind: social.ItemPaper, Ref: "p-carl"},
		{Kind: social.ItemSession, Ref: "s-graphs"},
	}})
	_ = st.SetActiveWorkpad("zach", "w-zach")

	eng, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return st, eng
}

func TestBuildAssemblesAllLayers(t *testing.T) {
	_, eng := zachWorld(t)
	if eng.Segment().Len() == 0 {
		t.Fatal("text index empty")
	}
	if eng.ConceptMap().Len() == 0 {
		t.Fatal("concept map empty")
	}
	if eng.PeerGraph().NumNodes() != 5 {
		t.Fatalf("peer graph nodes = %d", eng.PeerGraph().NumNodes())
	}
	if eng.KnowledgeBase().Len() == 0 {
		t.Fatal("knowledge base empty")
	}
	if len(eng.Layers()) != 4 {
		t.Fatalf("layers = %d", len(eng.Layers()))
	}
	if s := eng.String(); !strings.Contains(s, "users=5") {
		t.Fatalf("String = %q", s)
	}
}

func TestExplainFindsScenarioEvidences(t *testing.T) {
	_, eng := zachWorld(t)
	// Zach vs Ann: zach cites her, follows her, connected, shares the
	// graph context.
	ex, err := eng.Explain("zach", "ann")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EvidenceKind]bool{}
	for _, ev := range ex.Evidences {
		kinds[ev.Kind] = true
		if ev.Strength <= 0 || ev.Strength > 1 {
			t.Fatalf("strength out of range: %+v", ev)
		}
		if ev.Description == "" {
			t.Fatalf("missing description: %+v", ev)
		}
	}
	if !kinds[EvCitation] {
		t.Fatalf("citation evidence missing: %+v", ex.Evidences)
	}
	if !kinds[EvFollow] {
		t.Fatalf("follow evidence missing: %+v", ex.Evidences)
	}
	if ex.Score <= 0 || ex.Score > 1 {
		t.Fatalf("score = %v", ex.Score)
	}
	if len(ex.Paths) == 0 {
		t.Fatal("no connecting paths")
	}
	if ex.Paths[0][0] != "zach" || ex.Paths[0][len(ex.Paths[0])-1] != "ann" {
		t.Fatalf("path endpoints wrong: %v", ex.Paths[0])
	}
}

func TestExplainCoauthorAndAffiliation(t *testing.T) {
	_, eng := zachWorld(t)
	ex, err := eng.Explain("zach", "advisor")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EvidenceKind]bool{}
	for _, ev := range ex.Evidences {
		kinds[ev.Kind] = true
	}
	if !kinds[EvCoauthor] {
		t.Fatalf("coauthor evidence missing: %+v", ex.Evidences)
	}
	if !kinds[EvAffiliation] {
		t.Fatalf("affiliation evidence missing: %+v", ex.Evidences)
	}
}

func TestExplainQAEvidence(t *testing.T) {
	_, eng := zachWorld(t)
	// Aaron asked about Zach's presentation; Zach answered.
	ex, err := eng.Explain("zach", "aaron")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range ex.Evidences {
		if ev.Kind == EvQA {
			found = true
		}
	}
	if !found {
		t.Fatalf("QA evidence missing: %+v", ex.Evidences)
	}
}

func TestExplainIndirectCoauthorship(t *testing.T) {
	_, eng := zachWorld(t)
	// zach—advisor—carl: distance 2.
	ex, err := eng.Explain("zach", "carl")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range ex.Evidences {
		if ev.Kind == EvCoauthor {
			if !strings.Contains(ev.Description, "distance 2") {
				t.Fatalf("expected distance-2 explanation: %+v", ev)
			}
			return
		}
	}
	t.Fatalf("indirect coauthor evidence missing: %+v", ex.Evidences)
}

func TestExplainUnknownUser(t *testing.T) {
	_, eng := zachWorld(t)
	if _, err := eng.Explain("zach", "ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.Explain("ghost", "zach"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestFusionRules(t *testing.T) {
	evs := []Evidence{
		{Kind: EvCoauthor, Strength: 0.8},
		{Kind: EvProfile, Strength: 0.4},
		{Kind: EvFollow, Strength: 0.6},
	}
	ws := FuseWeightedSum(evs)
	if ws <= 0 || ws > 1 {
		t.Fatalf("weighted sum = %v", ws)
	}
	if FuseWeightedSum(nil) != 0 {
		t.Fatal("empty fusion should be 0")
	}
	// More independent evidence must not lower the weighted score given
	// equal strengths.
	single := FuseWeightedSum([]Evidence{{Kind: EvCoauthor, Strength: 0.8}})
	if single >= ws {
		t.Fatalf("count damping inverted: single=%v multi=%v", single, ws)
	}
}

func TestContextVectorUsesWorkpad(t *testing.T) {
	_, eng := zachWorld(t)
	ctx := eng.ContextVector("zach")
	if len(ctx) == 0 {
		t.Fatal("empty context")
	}
	// The workpad contains a graph-processing paper and session; "graph"
	// must be a strong term.
	if ctx["graph"] == 0 {
		t.Fatalf("context missing workpad terms: %v", ctx.TopTerms(10))
	}
	// A user with no workpad still gets interests.
	ctxA := eng.ContextVector("aaron")
	if len(ctxA) == 0 {
		t.Fatal("interest-only context empty")
	}
	// Unknown users yield an empty vector.
	if got := eng.ContextVector("ghost"); len(got) != 0 {
		t.Fatalf("ghost context = %v", got)
	}
}

func TestSearchAndSearchWithContext(t *testing.T) {
	_, eng := zachWorld(t)
	plain := eng.Search("graph processing", 5)
	if len(plain) == 0 {
		t.Fatal("no plain results")
	}
	ctxd := eng.SearchWithContext("zach", "graph processing", 5)
	if len(ctxd) == 0 {
		t.Fatal("no contextual results")
	}
	// Zach's workpad is graph-flavored; the graph-traversal paper p-carl
	// should rank at or above its plain position.
	posPlain, posCtx := -1, -1
	for i, r := range plain {
		if r.DocID == DocPaper+"p-carl" {
			posPlain = i
		}
	}
	for i, r := range ctxd {
		if r.DocID == DocPaper+"p-carl" {
			posCtx = i
		}
	}
	if posCtx == -1 {
		t.Fatalf("context search lost the relevant paper: %v", ctxd)
	}
	if posPlain != -1 && posCtx > posPlain {
		t.Fatalf("context demoted relevant paper: plain@%d ctx@%d", posPlain, posCtx)
	}
}

func TestPreview(t *testing.T) {
	_, eng := zachWorld(t)
	snips, err := eng.Preview("zach", DocPresentation+"pres-zach", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(snips) == 0 {
		t.Fatal("no snippets")
	}
	if _, err := eng.Preview("zach", "paper/missing", 2); err == nil {
		t.Fatal("missing doc accepted")
	}
}

func TestRecommendPeersExcludesSelfAndConnections(t *testing.T) {
	_, eng := zachWorld(t)
	recs, err := eng.RecommendPeers("zach", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no peer recommendations")
	}
	for _, r := range recs {
		if r.UserID == "zach" {
			t.Fatal("recommended self")
		}
		if r.UserID == "ann" {
			t.Fatal("recommended an existing connection")
		}
		if r.Score <= 0 {
			t.Fatalf("non-positive score: %+v", r)
		}
	}
	// The advisor (coauthor, same affiliation, follows zach) should be
	// among the top suggestions, with evidence attached.
	found := false
	for _, r := range recs {
		if r.UserID == "advisor" {
			found = true
			if len(r.Evidences) == 0 {
				t.Fatal("advisor recommendation has no evidence")
			}
		}
	}
	if !found {
		t.Fatalf("advisor not recommended: %+v", recs)
	}
	if _, err := eng.RecommendPeers("ghost", 3); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecommendPeersAttachesLikelySessions(t *testing.T) {
	_, eng := zachWorld(t)
	recs, err := eng.RecommendPeers("zach", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.UserID == "carl" {
			if len(r.LikelySessions) == 0 {
				t.Fatal("carl checked into s-graphs; likely sessions empty")
			}
			if r.LikelySessions[0] != "s-graphs" {
				t.Fatalf("LikelySessions = %v", r.LikelySessions)
			}
			return
		}
	}
	// carl might not be in top-4; that is fine as long as someone has
	// sessions.
	for _, r := range recs {
		if len(r.LikelySessions) > 0 {
			return
		}
	}
	t.Fatalf("no recommendation carries likely sessions: %+v", recs)
}

func TestSuggestSessionsSocialSignal(t *testing.T) {
	_, eng := zachWorld(t)
	// Zach follows ann and carl, both checked into s-graphs; he attends
	// s-social already.
	sugg, err := eng.SuggestSessions("zach", "edbt13", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	if sugg[0].SessionID != "s-graphs" {
		t.Fatalf("top suggestion = %+v, want s-graphs", sugg[0])
	}
	if len(sugg[0].FollowedAttendees) != 2 {
		t.Fatalf("FollowedAttendees = %v", sugg[0].FollowedAttendees)
	}
	// Already-attended sessions are excluded.
	for _, s := range sugg {
		if s.SessionID == "s-social" {
			t.Fatal("suggested an attended session")
		}
	}
	if _, err := eng.SuggestSessions("ghost", "edbt13", 3); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecommendResourcesContextBeatsNoContext(t *testing.T) {
	_, eng := zachWorld(t)
	withCtx, err := eng.RecommendResources("zach", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(withCtx) == 0 {
		t.Fatal("no contextual recommendations")
	}
	// Own content never recommended.
	for _, r := range withCtx {
		if strings.Contains(r.DocID, "p-zach") || strings.Contains(r.DocID, "pres-zach") {
			t.Fatalf("own content recommended: %+v", r)
		}
	}
	// The graph-themed p-carl should surface for Zach's graph workpad.
	found := false
	for _, r := range withCtx {
		if r.DocID == DocPaper+"p-carl" {
			found = true
		}
	}
	if !found {
		t.Fatalf("context-matched paper missing: %+v", withCtx)
	}
}

func TestCommunitiesCoverAllUsers(t *testing.T) {
	_, eng := zachWorld(t)
	comms := eng.Communities()
	seen := map[string]bool{}
	for _, c := range comms {
		for _, u := range c {
			seen[u] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("communities cover %d users, want 5", len(seen))
	}
}

func TestUpdateDigest(t *testing.T) {
	st, eng := zachWorld(t)
	_ = st // advisor follows zach; zach has activity
	sum, err := eng.UpdateDigest("advisor", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) == 0 || len(sum.Rows) > 3 {
		t.Fatalf("digest rows = %d", len(sum.Rows))
	}
	total := 0
	for _, r := range sum.Rows {
		total += r.Count
	}
	if total == 0 {
		t.Fatal("digest covers no events")
	}
}

func TestActivityTensorStreamAndMonitor(t *testing.T) {
	st, eng := zachWorld(t)
	events := st.EventsSince(0, 0)
	stream, sk, err := ActivityTensorStream(events, st.Users(), eng.TargetKind, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(events) + 2) / 3; len(stream) != want {
		t.Fatalf("%d events in epochs of 3 made %d epochs, want %d", len(events), len(stream), want)
	}
	if sk == nil {
		t.Fatal("nil sketcher")
	}
	res, err := tensor.MonitorSketched(sk, stream, &tensor.Detector{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(stream) {
		t.Fatalf("results = %d, epochs = %d", len(res), len(stream))
	}
	if stream, sk, err := ActivityTensorStream(events, nil, eng.TargetKind, 3); stream != nil || sk != nil || err != nil {
		t.Fatalf("no users: %v, %v, %v; want no epochs", stream, sk, err)
	}
}

// --- Workload-scale integration ----------------------------------------------

func buildWorkloadEngine(t *testing.T, users int) *Engine {
	t.Helper()
	st, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ds := workload.Generate(workload.Config{Seed: 11, Users: users})
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	eng, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestWorkloadScaleBuildAndServices(t *testing.T) {
	eng := buildWorkloadEngine(t, 48)
	// Every user must be explainable against every service without error.
	users := eng.Store().Users()
	if _, err := eng.Explain(users[0], users[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RecommendPeers(users[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RecommendResources(users[0], 5, true); err != nil {
		t.Fatal(err)
	}
	if got := eng.Search("graph partitioning", 5); len(got) == 0 {
		t.Fatal("search found nothing in workload corpus")
	}
	if comms := eng.Communities(); len(comms) == 0 {
		t.Fatal("no communities")
	}
}

func TestCFBeatsPopularityOnTopicalHoldout(t *testing.T) {
	eng := buildWorkloadEngine(t, 64)
	ds := workload.Generate(workload.Config{Seed: 11, Users: 64})

	// For each user, check whether top-5 recommendations match the
	// user's planted topic. CF should exceed the popularity baseline on
	// average (the E10 shape).
	topicHit := func(recs []CFRecommendation, topic int) float64 {
		if len(recs) == 0 {
			return 0
		}
		hits := 0
		for _, r := range recs {
			id := stripDocPrefix(r.DocID)
			if ds.TopicOfPaper[id] == topic {
				hits++
			}
			if p, err := eng.Store().Presentation(id); err == nil && ds.TopicOfPaper[p.PaperID] == topic {
				hits++
			}
		}
		return float64(hits) / float64(len(recs))
	}
	var cfSum, popSum float64
	n := 0
	for _, u := range eng.Store().Users() {
		topic := ds.TopicOfUser[u]
		cf := eng.RecommendByCF(u, 5)
		pop := eng.RecommendByPopularity(u, 5)
		if len(cf) == 0 {
			continue
		}
		cfSum += topicHit(cf, topic)
		popSum += topicHit(pop, topic)
		n++
	}
	if n < 10 {
		t.Fatalf("too few users with CF output: %d", n)
	}
	if cfSum <= popSum {
		t.Fatalf("CF precision %.3f not above popularity %.3f", cfSum/float64(n), popSum/float64(n))
	}
}

func TestContextImprovesResourcePrecision(t *testing.T) {
	eng := buildWorkloadEngine(t, 64)
	ds := workload.Generate(workload.Config{Seed: 11, Users: 64})

	precision := func(useCtx bool) float64 {
		var sum float64
		n := 0
		for _, u := range eng.Store().Users() {
			topic := ds.TopicOfUser[u]
			recs, err := eng.RecommendResources(u, 5, useCtx)
			if err != nil || len(recs) == 0 {
				continue
			}
			hits := 0
			for _, r := range recs {
				id := stripDocPrefix(r.DocID)
				if ds.TopicOfPaper[id] == topic {
					hits++
				} else if p, err := eng.Store().Presentation(id); err == nil && ds.TopicOfPaper[p.PaperID] == topic {
					hits++
				}
			}
			sum += float64(hits) / float64(len(recs))
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	withCtx := precision(true)
	without := precision(false)
	if withCtx <= without {
		t.Fatalf("context precision %.3f not above no-context %.3f (E4 shape)", withCtx, without)
	}
}

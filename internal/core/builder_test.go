package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hive/internal/biblio"
	"hive/internal/graph"
	"hive/internal/social"
	"hive/internal/workload"
)

// builderStore assembles a small but fully populated store exercising
// every derivation stage.
func builderStore(t *testing.T) *social.Store {
	t.Helper()
	st, err := social.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	users := []string{"ann", "bob", "cat", "dan", "eve"}
	for _, u := range users {
		if err := st.PutUser(social.User{ID: u, Name: strings.ToUpper(u), Interests: []string{"graphs"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutConference(social.Conference{ID: "c1", Name: "EDBT", Year: 2013}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSession(social.Session{ID: "s1", ConferenceID: "c1", Title: "Graphs"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutPaper(social.Paper{ID: "p1", Title: "Graph partitioning", Abstract: "We partition graphs for scale.",
		Authors: []string{"ann", "bob"}, ConferenceID: "c1", SessionID: "s1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutPaper(social.Paper{ID: "p2", Title: "Context networks", Abstract: "Multi-layer context graphs.",
		Authors: []string{"cat"}, Citations: []string{"p1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutPresentation(social.Presentation{ID: "pr1", PaperID: "p1", Owner: "ann", Text: "Slides about vertex cuts."}); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect("ann", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := st.Follow("dan", "ann"); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"ann", "cat", "dan"} {
		if err := st.CheckIn("s1", u); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AskQuestion(social.Question{ID: "q1", Author: "eve", Target: "p1", Text: "How does it scale?"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PostAnswer(social.Answer{ID: "a1", QuestionID: "q1", Author: "ann", Text: "Linearly."}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBuilderParallelMatchesSerial asserts that the fanned-out build
// derives exactly the same knowledge structures as a serial build.
func TestBuilderParallelMatchesSerial(t *testing.T) {
	st := builderStore(t)
	serial, err := (&Builder{Store: st, Workers: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Builder{Store: st, Workers: 8}).Build()
	if err != nil {
		t.Fatal(err)
	}

	if a, b := serial.peerGraph.NumNodes(), parallel.peerGraph.NumNodes(); a != b {
		t.Fatalf("peer nodes: serial %d, parallel %d", a, b)
	}
	if a, b := serial.peerGraph.NumEdges(), parallel.peerGraph.NumEdges(); a != b {
		t.Fatalf("peer edges: serial %d, parallel %d", a, b)
	}
	if a, b := serial.kb.Len(), parallel.kb.Len(); a != b {
		t.Fatalf("kb triples: serial %d, parallel %d", a, b)
	}
	if a, b := serial.concepts.Len(), parallel.concepts.Len(); a != b {
		t.Fatalf("concepts: serial %d, parallel %d", a, b)
	}
	if a, b := len(serial.communities), len(parallel.communities); a != b {
		t.Fatalf("communities: serial %d, parallel %d", a, b)
	}
	for _, eng := range []*Engine{serial, parallel} {
		if len(eng.layers) != 4 {
			t.Fatalf("layers = %d, want 4", len(eng.layers))
		}
	}
	a, b := serial.Search("graph partitioning", 5), parallel.Search("graph partitioning", 5)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("search results differ: serial %d, parallel %d", len(a), len(b))
	}
	for i := range a {
		if a[i].DocID != b[i].DocID {
			t.Fatalf("search rank %d: serial %q, parallel %q", i, a[i].DocID, b[i].DocID)
		}
	}
}

func TestBuilderSetsSnapshotMetadata(t *testing.T) {
	st := builderStore(t)
	eng, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if eng.BuiltAt().IsZero() {
		t.Fatal("BuiltAt not set")
	}
	if eng.BuildDuration() < 0 {
		t.Fatalf("BuildDuration = %v", eng.BuildDuration())
	}
}

// TestRunLimitedPropagatesErrorsAndPanics exercises the fan-out
// machinery directly: the first error wins and a panicking stage is
// converted into an error instead of crashing the process.
func TestRunLimitedPropagatesErrorsAndPanics(t *testing.T) {
	boom := errors.New("boom")
	tasks := []buildTask{
		{"ok", func(*Engine) error { return nil }},
		{"fail", func(*Engine) error { return boom }},
		{"ok2", func(*Engine) error { return nil }},
	}
	if _, err := runLimited(tasks, &Engine{}, 2); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}

	tasks = []buildTask{{"panic", func(*Engine) error { panic("kaboom") }}}
	_, err := runLimited(tasks, &Engine{}, 4)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted: %v", err)
	}
}

// TestBuildWorkerCounts runs the full build at several worker counts —
// including more workers than stages — to shake out races under -race.
func TestBuildWorkerCounts(t *testing.T) {
	st := builderStore(t)
	for _, w := range []int{0, 1, 2, 3, 16} {
		eng, err := (&Builder{Store: st, Workers: w}).Build()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if eng.peerGraph == nil || eng.seg == nil || eng.kb == nil || eng.concepts == nil {
			t.Fatalf("workers=%d: incomplete engine", w)
		}
	}
}

// projectCoauthorNetwork is the oracle for the co-authorship layer: the
// bibliographic co-author network, projected edge for edge onto a graph
// that first holds a node for every user.
func projectCoauthorNetwork(users []string, papers []social.Paper) *graph.Graph {
	net := biblio.CoauthorNetwork(papers)
	coauth := graph.NewBuilder()
	for _, u := range users {
		coauth.EnsureNode(u, "user")
	}
	net.Nodes(func(n graph.Node) bool {
		from := coauth.EnsureNode(n.Key, "user")
		for _, ed := range net.Out(n.ID) {
			to, err := net.Node(ed.Node)
			if err != nil {
				continue
			}
			_ = coauth.AddEdge(from, coauth.EnsureNode(to.Key, "user"), biblio.EdgeCoauthor, ed.Weight)
		}
		return true
	})
	return coauth.Freeze()
}

// TestCoauthorLayerMatchesProjection: the layer the build derives
// straight from the papers has the projection's node IDs, keys and
// labels, and the same out-lists in the same order with bit-equal
// weights.
func TestCoauthorLayerMatchesProjection(t *testing.T) {
	zach, _ := zachWorld(t)
	conf, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conf.Close() })
	if err := workload.Generate(workload.Config{Seed: 13, Users: 64}).Load(conf); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*social.Store{"builder": builderStore(t), "zach": zach, "conf64": conf} {
		t.Run(name, func(t *testing.T) {
			eng, err := (&Builder{Store: st}).Build()
			if err != nil {
				t.Fatal(err)
			}
			got, want := eng.coauthLayer, projectCoauthorNetwork(eng.users, eng.papers)
			if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || want.NumEdges() == 0 {
				t.Fatalf("layer has %d nodes and %d edges, projection %d and %d",
					got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
			}
			for id := graph.NodeID(0); int(id) < want.NumNodes(); id++ {
				gn, _ := got.Node(id)
				wn, _ := want.Node(id)
				if gn != wn {
					t.Fatalf("node %d: layer %+v, projection %+v", id, gn, wn)
				}
				gOut, wOut := got.Out(id), want.Out(id)
				if len(gOut) != len(wOut) {
					t.Fatalf("node %s: %d out-edges, projection %d", wn.Key, len(gOut), len(wOut))
				}
				for i, we := range wOut {
					ge := gOut[i]
					if ge.Node != we.Node || got.Label(ge.Label) != want.Label(we.Label) ||
						math.Float64bits(ge.Weight) != math.Float64bits(we.Weight) {
						t.Fatalf("node %s out-edge %d: layer %+v, projection %+v", wn.Key, i, ge, we)
					}
				}
			}
		})
	}
}

package core

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hive/internal/graph"
	"hive/internal/social"
	"hive/internal/textindex"
	"hive/internal/workload"
)

// seed13Store loads the seed-13 synthetic conference with the given
// number of users into an in-memory store.
func seed13Store(t *testing.T, users int) *social.Store {
	t.Helper()
	st, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := workload.Generate(workload.Config{Seed: 13, Users: users}).Load(st); err != nil {
		t.Fatal(err)
	}
	return st
}

func seed13Engine(t *testing.T, users int) *Engine {
	t.Helper()
	eng, err := (&Builder{Store: seed13Store(t, users), Workers: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSnapshotLayoutBudgets holds the frozen layouts to their byte
// budgets on the 128-user dataset: at most 24 B per stored arc per
// direction for every snapshot graph (offsets, arc records and labels;
// the node table is per node), at most 64 B per knowledge-base triple
// with its dictionary, and GraphBytes, which the
// hive_snapshot_graph_bytes gauge reports, is the sum of the layouts.
// The text vectors — context rows, session runs and content rows —
// hold at most 16 B
// per stored (term, weight) pair, run headers and the shared dictionary
// included, all of it in VectorBytes (hive_snapshot_vector_bytes).
func TestSnapshotLayoutBudgets(t *testing.T) {
	eng := seed13Engine(t, 128)
	graphs := map[string]*graph.Graph{
		"integrated": eng.peerGraph, LayerConnections: eng.connLayer, LayerCoauthor: eng.coauthLayer,
		LayerAttendance: eng.attendLayer, LayerQA: eng.qaLayer, "citations": eng.citationNet,
	}
	sum := eng.kb.Bytes() + eng.concepts.Bytes()
	for name, g := range graphs {
		sum += g.Bytes()
		arcs := g.Bytes() - g.NumNodes()*int(unsafe.Sizeof(graph.Node{}))
		if g.NumEdges() == 0 || arcs > 24*2*g.NumEdges() {
			t.Errorf("%s: %d B of adjacency for %d arcs, budget 24 B per arc per direction", name, arcs, g.NumEdges())
		}
	}
	if n := eng.kb.Len(); n == 0 || eng.kb.Bytes() > 64*n {
		t.Errorf("knowledge base: %d B for %d triples, budget 64 B per triple", eng.kb.Bytes(), n)
	}
	if got := eng.GraphBytes(); got != sum {
		t.Errorf("GraphBytes = %d, layouts sum to %d", got, sum)
	}

	pairs, vecBytes := 0, eng.vecDict.Bytes()
	count := func(cq *textindex.CompiledVector) {
		if cq.Dict() != eng.vecDict {
			t.Errorf("a build-time run has a dictionary of its own")
		}
		pairs += cq.Len()
		vecBytes += cq.Bytes()
	}
	eng.ctx.each(func(_ string, row userContext) {
		if row.query != nil {
			count(row.query)
		}
	})
	eng.sessions.each(func(_ string, cq *textindex.CompiledVector) { count(cq) })
	eng.content.each(func(_ string, cq *textindex.CompiledVector) { count(cq) })
	if pairs == 0 || vecBytes > 16*pairs {
		t.Errorf("text vectors: %d B for %d (term, weight) pairs, budget 16 B per pair", vecBytes, pairs)
	}
	if got := eng.VectorBytes(); got != vecBytes {
		t.Errorf("VectorBytes = %d, runs and dictionary sum to %d", got, vecBytes)
	}
	t.Logf("text vectors: %d B for %d pairs (%.1f B per pair), dictionary %d terms", vecBytes, pairs, float64(vecBytes)/float64(pairs), eng.vecDict.Len())
}

// TestEngineLiveHeapBudget bounds the heap one snapshot keeps live on
// the seed-13 dataset (a single-worker build, measured after two
// collections): the flat graph layouts brought it from 4.06 to 1.97 MiB
// at 128 users and from 28.9 to 11.5 MiB at 512 (EXPERIMENTS.md, "Dense
// snapshot graphs"), and the flat context vectors to 1.32 and 8.78 MiB
// (EXPERIMENTS.md, "Flat context vectors").
func TestEngineLiveHeapBudget(t *testing.T) {
	for _, c := range []struct {
		users  int
		budget uint64
	}{{128, 3 << 19}, {512, 19 << 19}} { // 1.5 and 9.5 MiB
		st := seed13Store(t, c.users)
		before := liveHeap()
		eng, err := (&Builder{Store: st, Workers: 1}).Build()
		if err != nil {
			t.Fatal(err)
		}
		live := liveHeap() - before
		runtime.KeepAlive(eng)
		t.Logf("%d users: engine live heap %.2f MB", c.users, float64(live)/(1<<20))
		if live > c.budget {
			t.Errorf("%d users: engine holds %d B live, budget %d", c.users, live, c.budget)
		}
	}
}

// TestKnowledgePathsDistinct asks for knowledge paths between seeded
// user pairs of the 128-user dataset: no two answers of one query may
// state the same facts in the same order, a connection being one fact
// whichever way it is read.
func TestKnowledgePathsDistinct(t *testing.T) {
	eng := seed13Engine(t, 128)
	users := eng.users
	rng := rand.New(rand.NewSource(13))
	multi := 0
	for q := 0; q < 60; q++ {
		a, b := "user:"+users[rng.Intn(len(users))], "user:"+users[rng.Intn(len(users))]
		paths := eng.KnowledgePaths(a, b, 5)
		if len(paths) > 1 {
			multi++
		}
		seen := map[string]int{}
		for i, p := range paths {
			facts := make([]string, len(p.Steps))
			for j, s := range p.Steps {
				x, y := s.Triple.Subject, s.Triple.Object
				if s.Triple.Predicate == "connected" && y < x {
					x, y = y, x
				}
				facts[j] = x + " " + s.Triple.Predicate + " " + y
			}
			key := strings.Join(facts, " / ")
			if j, dup := seen[key]; dup {
				t.Fatalf("KnowledgePaths(%s, %s): answers %d and %d both state %s", a, b, j, i, key)
			}
			seen[key] = i
		}
	}
	if multi < 10 {
		t.Fatalf("only %d of 60 queries returned more than one path", multi)
	}
}

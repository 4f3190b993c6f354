package conceptmap

import (
	"errors"
	"strings"
	"testing"
)

var graphDocs = []string{
	"Graph partitioning determines communication cost in distributed graph processing systems.",
	"We study partitioning heuristics for large graphs and their processing throughput.",
	"Tensor decomposition complements graph methods for multi-relational data.",
}

func TestBootstrapExtractsDominantConcepts(t *testing.T) {
	m, err := Bootstrap(graphDocs, BootstrapOptions{MaxConcepts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 || m.Len() > 10 {
		t.Fatalf("Len = %d", m.Len())
	}
	top := m.Concepts()[0].Term
	if !strings.Contains(top, "graph") && !strings.Contains(top, "partition") && !strings.Contains(top, "process") {
		t.Fatalf("top concept = %q, want a dominant corpus term (all: %v)", top, m.Concepts())
	}
}

func TestBootstrapEmpty(t *testing.T) {
	if _, err := Bootstrap(nil, BootstrapOptions{}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Bootstrap([]string{"the of and"}, BootstrapOptions{}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("stopword-only err = %v", err)
	}
}

func TestBootstrapCreatesRelations(t *testing.T) {
	m, err := Bootstrap(graphDocs, BootstrapOptions{MaxConcepts: 15})
	if err != nil {
		t.Fatal(err)
	}
	// "graph" and "partitioning" co-occur within the window repeatedly;
	// some surface forms may differ, so check that at least one pair of
	// top concepts is related.
	cs := m.Concepts()
	related := false
	for i := 0; i < len(cs) && !related; i++ {
		for j := i + 1; j < len(cs); j++ {
			if m.RelationWeight(cs[i].Term, cs[j].Term) > 0 {
				related = true
				break
			}
		}
	}
	if !related {
		t.Fatal("no concept relations created")
	}
}

func TestAddConceptRaisesSignificance(t *testing.T) {
	b := NewBuilder()
	b.AddConcept("graphs", 0.2)
	b.AddConcept("graphs", 0.5)
	b.AddConcept("graphs", 0.1) // lower must not overwrite
	m := b.Freeze()
	if s := m.Significance("graphs"); s != 0.5 {
		t.Fatalf("Significance = %v", s)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestRelateAccumulates(t *testing.T) {
	b := NewBuilder()
	b.Relate("a", "b", 1)
	b.Relate("a", "b", 2)
	b.Relate("a", "a", 1) // self-relation ignored
	m := b.Freeze()
	if w := m.RelationWeight("a", "b"); w != 3 {
		t.Fatalf("RelationWeight = %v", w)
	}
	if w := m.RelationWeight("b", "a"); w != 3 {
		t.Fatalf("relation not symmetric: %v", w)
	}
	if w := m.RelationWeight("a", "a"); w != 0 {
		t.Fatalf("self relation = %v", w)
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder()
	b.Relate("center", "weak", 1)
	b.Relate("center", "strong", 5)
	m := b.Freeze()
	ns := m.Neighbors("center")
	if len(ns) != 2 || ns[0].Term != "strong" {
		t.Fatalf("Neighbors = %v", ns)
	}
	if got := m.Neighbors("missing"); got != nil {
		t.Fatalf("missing term neighbors = %v", got)
	}
}

func TestActivateConcentratesNearSeeds(t *testing.T) {
	b := NewBuilder()
	// Chain: a - b - c - d; seed at a.
	b.Relate("a", "b", 1)
	b.Relate("b", "c", 1)
	b.Relate("c", "d", 1)
	m := b.Freeze()
	act := m.Activate([]string{"a"})
	if act["a"] <= act["c"] {
		t.Fatalf("seed should dominate: a=%v c=%v", act["a"], act["c"])
	}
	if act["b"] <= act["d"] {
		t.Fatalf("activation should decay: b=%v d=%v", act["b"], act["d"])
	}
}

func TestActivateUnknownSeedsFallBack(t *testing.T) {
	b := NewBuilder()
	b.AddConcept("x", 0.7)
	m := b.Freeze()
	act := m.Activate([]string{"unknown"})
	if act["x"] != 0.7 {
		t.Fatalf("fallback should return significances: %v", act)
	}
}

func TestActivateMultipleSeeds(t *testing.T) {
	b := NewBuilder()
	b.Relate("a", "mid", 1)
	b.Relate("b", "mid", 1)
	b.Relate("mid", "far", 0.1)
	m := b.Freeze()
	act := m.Activate([]string{"a", "b"})
	if act["mid"] <= act["far"] {
		t.Fatalf("mid should beat far: %v", act)
	}
}

func TestContextVectorStemsAndFilters(t *testing.T) {
	v := ContextVector(map[string]float64{"graphs": 0.5, "processing": 0.3, "zero": 0})
	if len(v) != 2 {
		t.Fatalf("vector = %v", v)
	}
	if _, ok := v["graph"]; !ok {
		t.Fatalf("stemmed key missing: %v", v)
	}
}

func TestStringSummary(t *testing.T) {
	b := NewBuilder()
	b.Relate("a", "b", 1)
	m := b.Freeze()
	if s := m.String(); !strings.Contains(s, "2 concepts") || !strings.Contains(s, "1 relations") {
		t.Fatalf("String = %q", s)
	}
}

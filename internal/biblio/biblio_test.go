package biblio

import (
	"testing"

	"hive/internal/graph"
	"hive/internal/social"
)

func samplePapers() []social.Paper {
	return []social.Paper{
		{ID: "p1", Authors: []string{"alice", "bob"}, Citations: []string{"p0", "px"}},
		{ID: "p2", Authors: []string{"alice", "bob"}, Citations: []string{"p0"}},
		{ID: "p3", Authors: []string{"carol"}, Citations: []string{"p1", "p2"}},
		{ID: "p4", Authors: []string{"dave", "carol"}, Citations: []string{"p1", "px"}},
		{ID: "p0", Authors: []string{"erin"}},
	}
}

func TestCoauthorNetworkWeights(t *testing.T) {
	g := CoauthorNetwork(samplePapers())
	a, b := g.Lookup("alice"), g.Lookup("bob")
	if a == graph.Invalid || b == graph.Invalid {
		t.Fatal("authors missing")
	}
	e, ok := g.EdgeBetween(a, b, EdgeCoauthor)
	if !ok || e.Weight != 2 {
		t.Fatalf("alice-bob weight = %+v, %v (want 2 shared papers)", e, ok)
	}
	// Symmetric.
	e2, ok := g.EdgeBetween(b, a, EdgeCoauthor)
	if !ok || e2.Weight != 2 {
		t.Fatalf("reverse edge = %+v, %v", e2, ok)
	}
	// erin has no co-authors.
	if d := g.OutDegree(g.Lookup("erin")); d != 0 {
		t.Fatalf("erin degree = %d", d)
	}
}

func TestCitationGraphMaterializesExternal(t *testing.T) {
	g := CitationGraph(samplePapers())
	// px is cited but not in the corpus: must still exist as a node.
	if g.Lookup("px") == graph.Invalid {
		t.Fatal("external cited paper not materialized")
	}
	p1 := g.Lookup("p1")
	if g.OutDegree(p1) != 2 {
		t.Fatalf("p1 out-degree = %d", g.OutDegree(p1))
	}
}

func TestCoupling(t *testing.T) {
	g := CitationGraph(samplePapers())
	// p1 cites {p0, px}; p2 cites {p0} -> coupling 1.
	if c := Coupling(g, "p1", "p2"); c != 1 {
		t.Fatalf("Coupling(p1,p2) = %d", c)
	}
	// p1 and p4 share px.
	if c := Coupling(g, "p1", "p4"); c != 1 {
		t.Fatalf("Coupling(p1,p4) = %d", c)
	}
	if c := Coupling(g, "p1", "nope"); c != 0 {
		t.Fatalf("Coupling with unknown = %d", c)
	}
}

func TestCoCitation(t *testing.T) {
	g := CitationGraph(samplePapers())
	// p3 cites both p1 and p2; p4 cites p1 only -> co-citation(p1,p2) = 1.
	if c := CoCitation(g, "p1", "p2"); c != 1 {
		t.Fatalf("CoCitation = %d", c)
	}
	if c := CoCitation(g, "p0", "px"); c != 1 { // p1 cites both
		t.Fatalf("CoCitation(p0,px) = %d", c)
	}
}

func TestCitesTransitively(t *testing.T) {
	g := CitationGraph(samplePapers())
	// p3 -> p1 -> p0.
	ok, d := CitesTransitively(g, "p3", "p0", 3)
	if !ok || d != 2 {
		t.Fatalf("transitive = %v, %d", ok, d)
	}
	ok, _ = CitesTransitively(g, "p3", "p0", 1)
	if ok {
		t.Fatal("hop bound ignored")
	}
	ok, _ = CitesTransitively(g, "p0", "p3", 5)
	if ok {
		t.Fatal("citation direction ignored")
	}
	if ok, _ := CitesTransitively(g, "p3", "p3", 5); ok {
		t.Fatal("self should not count at depth 0")
	}
}

func TestAuthorCitesAuthor(t *testing.T) {
	papers := samplePapers()
	// carol's p3 cites p1,p2 (both alice's); p4 cites p1 -> 3 citations.
	if n := AuthorCitesAuthor(papers, "carol", "alice"); n != 3 {
		t.Fatalf("AuthorCitesAuthor = %d", n)
	}
	if n := AuthorCitesAuthor(papers, "alice", "carol"); n != 0 {
		t.Fatalf("reverse = %d", n)
	}
}

func TestSharedReferences(t *testing.T) {
	papers := samplePapers()
	// alice cites {p0, px}; carol (p3,p4) cites {p1,p2,px}.
	shared := SharedReferences(papers, "alice", "carol")
	if len(shared) != 1 || shared[0] != "px" {
		t.Fatalf("SharedReferences = %v", shared)
	}
	if got := SharedReferences(papers, "erin", "alice"); len(got) != 0 {
		t.Fatalf("no-citation author shared = %v", got)
	}
}

func TestCoauthorDistance(t *testing.T) {
	g := CoauthorNetwork(samplePapers())
	if d := CoauthorDistance(g, "alice", "bob", 3); d != 1 {
		t.Fatalf("direct distance = %d", d)
	}
	// alice - (no link) - carol: carol coauthors with dave only.
	if d := CoauthorDistance(g, "alice", "carol", 4); d != -1 {
		t.Fatalf("unconnected distance = %d", d)
	}
	if d := CoauthorDistance(g, "alice", "alice", 3); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if d := CoauthorDistance(g, "alice", "ghost", 3); d != -1 {
		t.Fatalf("unknown author distance = %d", d)
	}
}

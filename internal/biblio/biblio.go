// Package biblio derives Hive's bibliographic knowledge layers from paper
// records: the co-authorship network and the citation graph, plus the
// derived indirect-citation evidences the paper lists in §2 — citing the
// same paper (bibliographic coupling), being cited together
// (co-citation), and transitive citation.
package biblio

import (
	"sort"

	"hive/internal/graph"
	"hive/internal/social"
)

// Node labels and edge labels used in the derived graphs.
const (
	LabelAuthor = "author"
	LabelPaper  = "paper"

	EdgeCoauthor = "coauthor"
	EdgeCites    = "cites"
)

// CoauthorNetwork builds the undirected co-authorship graph over users:
// an edge per co-authored paper, weights accumulating one per shared
// paper (so frequent co-authors bind strongly — the "frequent co-author"
// evidence of §1.1).
func CoauthorNetwork(papers []social.Paper) *graph.Graph {
	g := graph.NewBuilder()
	for _, p := range papers {
		for _, a := range p.Authors {
			g.EnsureNode(a, LabelAuthor)
		}
		for i := 0; i < len(p.Authors); i++ {
			for j := i + 1; j < len(p.Authors); j++ {
				ai := g.Lookup(p.Authors[i])
				aj := g.Lookup(p.Authors[j])
				// AddUndirected accumulates weight on repeats.
				_ = g.AddUndirected(ai, aj, EdgeCoauthor, 1)
			}
		}
	}
	return g.Freeze()
}

// CitationGraph builds the directed paper citation graph. Nodes are
// papers (cited papers outside the corpus are materialized too); edges
// point from citing to cited paper.
func CitationGraph(papers []social.Paper) *graph.Graph {
	g := graph.NewBuilder()
	for _, p := range papers {
		g.EnsureNode(p.ID, LabelPaper)
	}
	for _, p := range papers {
		from := g.Lookup(p.ID)
		for _, cited := range p.Citations {
			to := g.EnsureNode(cited, LabelPaper)
			_ = g.AddEdge(from, to, EdgeCites, 1)
		}
	}
	return g.Freeze()
}

// Coupling returns the bibliographic coupling strength of two papers in a
// citation graph: the number of papers both cite. "Citing the same paper"
// is one of Hive's explicit evidence classes.
func Coupling(g *graph.Graph, a, b string) int {
	na, nb := g.Lookup(a), g.Lookup(b)
	if na == graph.Invalid || nb == graph.Invalid {
		return 0
	}
	return g.CommonNeighbors(na, nb)
}

// CoCitation returns the number of papers that cite both a and b.
func CoCitation(g *graph.Graph, a, b string) int {
	na, nb := g.Lookup(a), g.Lookup(b)
	if na == graph.Invalid || nb == graph.Invalid {
		return 0
	}
	cites := g.LabelID(EdgeCites)
	citersA := map[graph.NodeID]bool{}
	for _, e := range g.In(na) {
		if e.Label == cites {
			citersA[e.Node] = true
		}
	}
	n := 0
	for _, e := range g.In(nb) {
		if e.Label == cites && citersA[e.Node] {
			n++
		}
	}
	return n
}

// CitesTransitively reports whether a reaches b through citation edges in
// at most maxHops steps, and the hop distance (0 when unreachable).
func CitesTransitively(g *graph.Graph, a, b string, maxHops int) (bool, int) {
	na, nb := g.Lookup(a), g.Lookup(b)
	if na == graph.Invalid || nb == graph.Invalid {
		return false, 0
	}
	found := false
	dist := 0
	g.BFS(na, func(id graph.NodeID, depth int) bool {
		if depth > maxHops {
			return false
		}
		if id == nb && depth > 0 {
			found = true
			dist = depth
			return false
		}
		return true
	})
	return found, dist
}

// AuthorCitesAuthor reports how many times any paper of author a cites
// any paper of author b ("direct citation" evidence between people).
func AuthorCitesAuthor(papers []social.Paper, a, b string) int {
	papersBy := map[string]map[string]bool{} // author -> paper set
	for _, p := range papers {
		for _, au := range p.Authors {
			if papersBy[au] == nil {
				papersBy[au] = map[string]bool{}
			}
			papersBy[au][p.ID] = true
		}
	}
	bPapers := papersBy[b]
	n := 0
	for _, p := range papers {
		if !papersBy[a][p.ID] {
			continue
		}
		for _, cited := range p.Citations {
			if bPapers[cited] {
				n++
			}
		}
	}
	return n
}

// SharedReferences returns the IDs of papers cited by papers of both
// authors — the person-level "indirect citation" evidence.
func SharedReferences(papers []social.Paper, a, b string) []string {
	refs := func(author string) map[string]bool {
		out := map[string]bool{}
		for _, p := range papers {
			mine := false
			for _, au := range p.Authors {
				if au == author {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			for _, c := range p.Citations {
				out[c] = true
			}
		}
		return out
	}
	ra, rb := refs(a), refs(b)
	var shared []string
	for id := range ra {
		if rb[id] {
			shared = append(shared, id)
		}
	}
	sort.Strings(shared)
	return shared
}

// CoauthorDistance returns the co-authorship path length between two
// authors (the "was a co-author with his advisor a few years back"
// explanation), or -1 if unconnected within maxHops.
func CoauthorDistance(g *graph.Graph, a, b string, maxHops int) int {
	na, nb := g.Lookup(a), g.Lookup(b)
	if na == graph.Invalid || nb == graph.Invalid {
		return -1
	}
	res := -1
	g.BFS(na, func(id graph.NodeID, depth int) bool {
		if depth > maxHops {
			return false
		}
		if id == nb {
			res = depth
			return false
		}
		return true
	})
	return res
}

package graph

import "math"

// CommonNeighbors returns the number of distinct nodes that are
// out-neighbors of both a and b.
func (g *Graph) CommonNeighbors(a, b NodeID) int {
	na := g.Neighbors(a)
	nb := g.Neighbors(b)
	return countIntersect(na, nb)
}

// Jaccard returns the Jaccard similarity of the out-neighborhoods of a and
// b: |N(a) ∩ N(b)| / |N(a) ∪ N(b)|. Returns 0 when both neighborhoods are
// empty.
func (g *Graph) Jaccard(a, b NodeID) float64 {
	na := g.Neighbors(a)
	nb := g.Neighbors(b)
	inter := countIntersect(na, nb)
	union := len(na) + len(nb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AdamicAdar returns the Adamic-Adar index of a and b: the sum over common
// neighbors z of 1/log(deg(z)). Rare shared neighbors (e.g. citing the
// same obscure paper) count more than popular ones — exactly the intuition
// behind Hive's "indirect citation" evidence.
func (g *Graph) AdamicAdar(a, b NodeID) float64 {
	na := g.Neighbors(a)
	nb := g.Neighbors(b)
	var score float64
	i, j := 0, 0
	for i < len(na) && j < len(nb) {
		switch {
		case na[i] < nb[j]:
			i++
		case na[i] > nb[j]:
			j++
		default:
			deg := g.OutDegree(na[i])
			if deg > 1 {
				score += 1 / math.Log(float64(deg))
			}
			i++
			j++
		}
	}
	return score
}

// CosineNeighborhood returns the cosine similarity of the weighted
// out-neighborhood vectors of a and b.
func (g *Graph) CosineNeighborhood(a, b NodeID) float64 {
	va := g.neighborWeights(a)
	vb := g.neighborWeights(b)
	var dot, na2, nb2 float64
	for id, w := range va {
		na2 += w * w
		if w2, ok := vb[id]; ok {
			dot += w * w2
		}
	}
	for _, w := range vb {
		nb2 += w * w
	}
	if na2 == 0 || nb2 == 0 {
		return 0
	}
	return dot / (math.Sqrt(na2) * math.Sqrt(nb2))
}

func (g *Graph) neighborWeights(id NodeID) map[NodeID]float64 {
	m := make(map[NodeID]float64)
	for _, e := range g.Out(id) {
		m[e.Node] += e.Weight
	}
	return m
}

func countIntersect(a, b []NodeID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

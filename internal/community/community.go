// Package community implements Hive's community discovery and tracking
// service (Table 1): label propagation and greedy modularity maximization
// for discovery, and Jaccard-based matching for tracking how communities
// evolve between snapshots (conference editions).
package community

import (
	"math/rand"
	"sort"

	"hive/internal/graph"
)

// Community is a set of node IDs.
type Community []graph.NodeID

// Detect partitions the graph with Louvain-style local moving: starting
// from singleton communities, nodes greedily move to the neighboring
// community with the largest modularity gain until a fixpoint. Returns
// communities largest first; deterministic given the seed. Isolated
// nodes form singleton communities. Edge direction is ignored (evidence
// layers are symmetric).
func Detect(g *graph.Graph, seed int64) []Community {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))

	// Symmetrized adjacency: every directed edge contributes to both
	// endpoints. (Undirected layers store both arcs; the uniform factor
	// of two cancels in modularity comparisons.)
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = map[int]float64{}
	}
	deg := make([]float64, n) // weighted degree
	var m2 float64            // sum of all degrees
	for i := 0; i < n; i++ {
		for _, e := range g.Out(graph.NodeID(i)) {
			j := int(e.Node)
			if j == i {
				continue
			}
			adj[i][j] += e.Weight
			adj[j][i] += e.Weight
		}
	}
	for i := range adj {
		for _, w := range adj[i] {
			deg[i] += w
		}
		m2 += deg[i]
	}

	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	if m2 > 0 {
		commDeg := make([]float64, n) // total degree per community label
		copy(commDeg, deg)
		order := rng.Perm(n)
		for round := 0; round < 50; round++ {
			changed := false
			for _, i := range order {
				cur := labels[i]
				// Weight from i to each neighboring community.
				wTo := map[int]float64{}
				for j, w := range adj[i] {
					wTo[labels[j]] += w
				}
				commDeg[cur] -= deg[i] // detach i
				bestC, bestGain := cur, wTo[cur]-deg[i]*commDeg[cur]/m2
				cands := make([]int, 0, len(wTo))
				for c := range wTo {
					cands = append(cands, c)
				}
				sort.Ints(cands)
				for _, c := range cands {
					gain := wTo[c] - deg[i]*commDeg[c]/m2
					if gain > bestGain+1e-12 {
						bestGain, bestC = gain, c
					}
				}
				commDeg[bestC] += deg[i]
				if bestC != cur {
					labels[i] = bestC
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	byLabel := map[int]Community{}
	for i, l := range labels {
		byLabel[l] = append(byLabel[l], graph.NodeID(i))
	}
	comms := make([]Community, 0, len(byLabel))
	for _, c := range byLabel {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		comms = append(comms, c)
	}
	sort.Slice(comms, func(i, j int) bool {
		if len(comms[i]) != len(comms[j]) {
			return len(comms[i]) > len(comms[j])
		}
		return comms[i][0] < comms[j][0]
	})
	return comms
}

// Modularity computes the weighted Newman modularity of a partition,
// treating the graph as undirected (summing both edge directions).
func Modularity(g *graph.Graph, comms []Community) float64 {
	commOf := map[graph.NodeID]int{}
	for ci, c := range comms {
		for _, id := range c {
			commOf[id] = ci
		}
	}
	var total float64 // total edge weight (directed sum)
	strength := make(map[graph.NodeID]float64)
	g.Nodes(func(n graph.Node) bool {
		for _, e := range g.Out(n.ID) {
			total += e.Weight
			strength[n.ID] += e.Weight
			strength[e.Node] += e.Weight
		}
		return true
	})
	if total == 0 {
		return 0
	}
	m2 := 2 * total
	var q float64
	g.Nodes(func(n graph.Node) bool {
		for _, e := range g.Out(n.ID) {
			if commOf[n.ID] == commOf[e.Node] {
				q += e.Weight / total
			}
		}
		return true
	})
	// Expected fraction under the configuration model.
	sumByComm := map[int]float64{}
	for id, s := range strength {
		sumByComm[commOf[id]] += s
	}
	for _, s := range sumByComm {
		q -= (s / m2) * (s / m2)
	}
	return q
}

// GreedyModularity merges communities greedily while modularity improves,
// starting from the label-propagation partition — a one-level
// Louvain-style refinement that repairs over-fragmentation.
func GreedyModularity(g *graph.Graph, seed int64) []Community {
	comms := Detect(g, seed)
	improved := true
	for improved && len(comms) > 1 {
		improved = false
		base := Modularity(g, comms)
		bestI, bestJ, bestQ := -1, -1, base
		// Only consider merging connected community pairs.
		adj := communityAdjacency(g, comms)
		for i := range comms {
			for j := range adj[i] {
				if j <= i {
					continue
				}
				merged := mergePartition(comms, i, j)
				if q := Modularity(g, merged); q > bestQ+1e-12 {
					bestQ, bestI, bestJ = q, i, j
				}
			}
		}
		if bestI >= 0 {
			comms = mergePartition(comms, bestI, bestJ)
			improved = true
		}
	}
	sort.Slice(comms, func(i, j int) bool {
		if len(comms[i]) != len(comms[j]) {
			return len(comms[i]) > len(comms[j])
		}
		return comms[i][0] < comms[j][0]
	})
	return comms
}

func communityAdjacency(g *graph.Graph, comms []Community) []map[int]bool {
	commOf := map[graph.NodeID]int{}
	for ci, c := range comms {
		for _, id := range c {
			commOf[id] = ci
		}
	}
	adj := make([]map[int]bool, len(comms))
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	g.Nodes(func(n graph.Node) bool {
		for _, e := range g.Out(n.ID) {
			a, b := commOf[n.ID], commOf[e.Node]
			if a != b {
				adj[a][b] = true
				adj[b][a] = true
			}
		}
		return true
	})
	return adj
}

func mergePartition(comms []Community, i, j int) []Community {
	out := make([]Community, 0, len(comms)-1)
	merged := append(append(Community{}, comms[i]...), comms[j]...)
	sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
	for k, c := range comms {
		if k == i || k == j {
			continue
		}
		out = append(out, c)
	}
	return append(out, merged)
}

// Match tracks communities across two snapshots: for every community in
// prev it finds the community in next with the highest Jaccard overlap of
// node keys. Keys (not IDs) are matched because node IDs are not stable
// across graph rebuilds.
type Match struct {
	PrevIndex int
	NextIndex int // -1 when the community dissolved
	Jaccard   float64
}

// Track matches communities between snapshots. keysPrev and keysNext map
// node IDs to stable external keys for each graph.
func Track(prev, next []Community, keysPrev, keysNext func(graph.NodeID) string) []Match {
	nextSets := make([]map[string]bool, len(next))
	for i, c := range next {
		nextSets[i] = map[string]bool{}
		for _, id := range c {
			nextSets[i][keysNext(id)] = true
		}
	}
	matches := make([]Match, 0, len(prev))
	for pi, c := range prev {
		prevSet := map[string]bool{}
		for _, id := range c {
			prevSet[keysPrev(id)] = true
		}
		bestJ, bestIdx := 0.0, -1
		for ni, ns := range nextSets {
			inter := 0
			for k := range prevSet {
				if ns[k] {
					inter++
				}
			}
			union := len(prevSet) + len(ns) - inter
			if union == 0 {
				continue
			}
			j := float64(inter) / float64(union)
			if j > bestJ {
				bestJ, bestIdx = j, ni
			}
		}
		matches = append(matches, Match{PrevIndex: pi, NextIndex: bestIdx, Jaccard: bestJ})
	}
	return matches
}

package textindex

import (
	"math"
	"reflect"
	"testing"

	"hive/internal/workload"
)

// extractKeyphrasesMaps is the reference TextRank: the co-occurrence
// graph as nested maps, every sum in map iteration order.
func extractKeyphrasesMaps(text string) map[string]float64 {
	words := RawTerms(text)
	if len(words) == 0 {
		return nil
	}
	const window = 4
	idx := map[string]int{}
	counts := map[string]map[string]int{}
	surface := map[string]map[string]int{}
	stems := make([]string, len(words))
	for i, w := range words {
		st := Stem(w)
		stems[i] = st
		if _, ok := idx[st]; !ok {
			idx[st] = len(idx)
		}
		if surface[st] == nil {
			surface[st] = map[string]int{}
		}
		surface[st][w]++
	}
	for i := range stems {
		for j := i + 1; j < len(stems) && j <= i+window; j++ {
			a, b := stems[i], stems[j]
			if a == b {
				continue
			}
			if counts[a] == nil {
				counts[a] = map[string]int{}
			}
			if counts[b] == nil {
				counts[b] = map[string]int{}
			}
			counts[a][b]++
			counts[b][a]++
		}
	}
	n := len(idx)
	rank, next := make([]float64, n), make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	const damping = 0.85
	outWeight := make([]float64, n)
	for a, nbrs := range counts {
		for _, c := range nbrs {
			outWeight[idx[a]] += float64(c)
		}
	}
	for iter := 0; iter < 30; iter++ {
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for a, nbrs := range counts {
			ia := idx[a]
			share := damping * rank[ia] / outWeight[ia]
			for b, c := range nbrs {
				next[idx[b]] += share * float64(c)
			}
		}
		rank, next = next, rank
	}
	out := map[string]float64{}
	for st, i := range idx {
		best, bestN := "", -1
		for f, c := range surface[st] {
			if c > bestN || (c == bestN && f < best) {
				best, bestN = f, c
			}
		}
		out[best] = rank[i]
	}
	return out
}

// fixtureDocs is every indexed text of the 64-user synthetic workload:
// paper and presentation titles with their bodies, and questions.
func fixtureDocs() []string {
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	var docs []string
	for _, p := range ds.Papers {
		docs = append(docs, p.Title+". "+p.Abstract)
	}
	for _, pr := range ds.Presentations {
		docs = append(docs, pr.Title+". "+pr.Text)
	}
	for _, q := range ds.Questions {
		docs = append(docs, q.Text)
	}
	return docs
}

// TestExtractKeyphrasesDeterministic requires one text to rank bit for
// bit the same on every call, and the dense ranking to agree with the
// map-based reference up to float reassociation.
func TestExtractKeyphrasesDeterministic(t *testing.T) {
	docs := fixtureDocs()
	if len(docs) < 100 {
		t.Fatalf("fixture has %d documents", len(docs))
	}
	for d, text := range docs {
		first := ExtractKeyphrases(text, 0)
		for i := 1; i < 20; i++ {
			if got := ExtractKeyphrases(text, 0); !reflect.DeepEqual(got, first) {
				t.Fatalf("doc %d call %d:\n got %v\nwant %v", d, i, got, first)
			}
		}
		want := extractKeyphrasesMaps(text)
		if len(first) != len(want) {
			t.Fatalf("doc %d: %d terms, reference %d", d, len(first), len(want))
		}
		for _, kp := range first {
			w, ok := want[kp.Term]
			if !ok {
				t.Fatalf("doc %d: term %q not in the reference", d, kp.Term)
			}
			if math.Abs(kp.Score-w) > 1e-12 {
				t.Fatalf("doc %d: %q scores %v, reference %v", d, kp.Term, kp.Score, w)
			}
		}
	}
}

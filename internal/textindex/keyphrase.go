package textindex

import (
	"slices"
	"sort"
)

// Keyphrase is a term with an extraction score.
type Keyphrase struct {
	Term  string
	Score float64
}

// ExtractKeyphrases runs TextRank (Mihalcea & Tarau, 2004) over the word
// co-occurrence graph of the text and returns the top k unigram concepts.
// This implements the "key concept extraction for automated annotations"
// service of §2.3 and feeds concept-map bootstrapping (§2.1): the scores
// become initial concept significances.
//
// The co-occurrence window is 4 content words; the graph is undirected and
// weighted by co-occurrence counts; ranking runs a damped power iteration.
// The graph is dense: stems get int32 IDs in first-occurrence order and
// the counts sit in CSR rows, so every sum runs in a fixed order and one
// text always ranks bit for bit the same.
func ExtractKeyphrases(text string, k int) []Keyphrase {
	words := RawTerms(text)
	if len(words) == 0 {
		return nil
	}
	const window = 4
	// Group inflected variants by stem, stemming each distinct surface
	// form once; display the most frequent surface form of each stem.
	type form struct {
		word  string
		stem  int32
		count int
	}
	var forms []form
	formOf := make(map[string]int32, len(words))
	stemID := make(map[string]int32, len(words))
	seq := make([]int32, len(words))
	for i, w := range words {
		f, ok := formOf[w]
		if !ok {
			st := Stem(w)
			id, ok := stemID[st]
			if !ok {
				id = int32(len(stemID))
				stemID[st] = id
			}
			f = int32(len(forms))
			formOf[w] = f
			forms = append(forms, form{word: w, stem: id})
		}
		forms[f].count++
		seq[i] = forms[f].stem
	}
	n := len(stemID)

	// Co-occurrence counts as CSR: both directions of every in-window
	// pair, sorted by (from, to), then run-length encoded into rows.
	var pairs []uint64
	for i := range seq {
		for j := i + 1; j < len(seq) && j <= i+window; j++ {
			a, b := uint64(seq[i]), uint64(seq[j])
			if a != b {
				pairs = append(pairs, a<<32|b, b<<32|a)
			}
		}
	}
	slices.Sort(pairs)
	offsets := make([]int32, n+1)
	var nbr []int32
	var weight []float64
	for i, p := range pairs {
		if i > 0 && p == pairs[i-1] {
			weight[len(weight)-1]++
			continue
		}
		offsets[p>>32+1]++
		nbr = append(nbr, int32(uint32(p)))
		weight = append(weight, 1)
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}

	// Damped PageRank over the weighted co-occurrence graph.
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	const damping = 0.85
	outWeight := make([]float64, n)
	for a := 0; a < n; a++ {
		for _, c := range weight[offsets[a]:offsets[a+1]] {
			outWeight[a] += c
		}
	}
	for iter := 0; iter < 30; iter++ {
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for a := 0; a < n; a++ {
			if outWeight[a] == 0 {
				continue
			}
			share := damping * rank[a] / outWeight[a]
			for e := offsets[a]; e < offsets[a+1]; e++ {
				next[nbr[e]] += share * weight[e]
			}
		}
		rank, next = next, rank
	}

	best := make([]int32, n)
	for i := range best {
		best[i] = -1
	}
	for f, fm := range forms {
		b := best[fm.stem]
		if b < 0 || fm.count > forms[b].count || (fm.count == forms[b].count && fm.word < forms[b].word) {
			best[fm.stem] = int32(f)
		}
	}
	phrases := make([]Keyphrase, n)
	for i := range phrases {
		phrases[i] = Keyphrase{Term: forms[best[i]].word, Score: rank[i]}
	}
	sort.Slice(phrases, func(i, j int) bool {
		if phrases[i].Score != phrases[j].Score {
			return phrases[i].Score > phrases[j].Score
		}
		return phrases[i].Term < phrases[j].Term
	})
	if k > 0 && len(phrases) > k {
		phrases = phrases[:k]
	}
	return phrases
}

package textindex

import "strings"

// Snippet is an extracted text fragment with its relevance score.
type Snippet struct {
	Text  string
	Score float64
	Start int // sentence offset within the document
}

// ExtractSnippets implements context-aware relevant snippet extraction in
// the spirit of [14] (Li, Candan, Qi, AAAI 2008): the document is split
// into sentences, each sentence's term-frequency run is scored by cosine
// similarity against the context run (summed in term order, so the
// scores are reproducible) with a small positional prior (earlier sentences win
// ties, as abstracts lead), and the top k non-overlapping sentences are
// returned in document order.
//
// The context run usually comes from the user's active workpad, giving
// "generate summary previews and highlights ... based on context"
// (Table 1).
func ExtractSnippets(doc string, context *CompiledVector, k int) []Snippet {
	sents := SplitSentences(doc)
	if len(sents) == 0 {
		return nil
	}
	scored := make([]Snippet, len(sents))
	for i, s := range sents {
		score := TextRun(s).Cosine(context)
		// Positional prior: tiny boost decaying with position so that,
		// among equally relevant sentences, leading ones surface first.
		score += 0.01 / float64(1+i)
		scored[i] = Snippet{Text: s, Score: score, Start: i}
	}
	// Select top k by score.
	sel := append([]Snippet(nil), scored...)
	for i := 0; i < k && i < len(sel); i++ {
		best := i
		for j := i + 1; j < len(sel); j++ {
			if sel[j].Score > sel[best].Score {
				best = j
			}
		}
		sel[i], sel[best] = sel[best], sel[i]
	}
	if k > len(sel) {
		k = len(sel)
	}
	sel = sel[:k]
	// Restore document order.
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j].Start < sel[j-1].Start; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	return sel
}

// SplitSentences splits text into sentences on ., ! and ? boundaries,
// trimming whitespace and dropping empties. It is deliberately simple:
// scientific abstracts rarely need abbreviation handling, and failure
// just yields slightly longer snippets.
func SplitSentences(text string) []string {
	var sents []string
	var b strings.Builder
	flush := func() {
		s := strings.TrimSpace(b.String())
		if s != "" {
			sents = append(sents, s)
		}
		b.Reset()
	}
	for _, r := range text {
		b.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			flush()
		}
	}
	flush()
	return sents
}

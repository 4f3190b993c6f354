package textindex

import (
	"fmt"
	"reflect"
	"testing"
)

// uncachedTerms is Terms without the stem memo: Tokenize, drop stopwords
// and single characters, Porter-stem the rest.
func uncachedTerms(text string) []string {
	var out []string
	for _, t := range Tokenize(text) {
		if len(t) < 2 || IsStopword(t) {
			continue
		}
		out = append(out, porterStem(t))
	}
	return out
}

// FuzzTerms checks the memoised analysis chain against the uncached one
// on arbitrary input, twice: the second call answers from the memo.
func FuzzTerms(f *testing.F) {
	for _, s := range []string{
		"", "Graph-based Peer Discovery, v2.0!", "the and of",
		"Partitioning partitioned partitions PARTITIONING",
		"relational rationalization hopefulness generalizations",
		"Über naïve café — 東京 graphs", "a b c dd eee ffff ggggg",
		"sses ies ss s eed ing ed y", "\xff\xfe invalid utf-8 \x80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := uncachedTerms(text)
		for call := 0; call < 2; call++ {
			got := Terms(text)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: Terms(%q) = %q, uncached %q", call, text, got, want)
			}
		}
	})
}

// TestStemMemoCapped fills the memo past its cap and requires it to
// stop growing there while Stem keeps answering correctly.
func TestStemMemoCapped(t *testing.T) {
	for i := 0; i < stemMemoCap+1000; i++ {
		w := fmt.Sprintf("memocapword%dings", i)
		if got, want := Stem(w), porterStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", w, got, want)
		}
	}
	n := 0
	stemMemo.Range(func(_, _ any) bool { n++; return true })
	if n != stemMemoCap || stemMemoLen.Load() != stemMemoCap {
		t.Fatalf("memo holds %d entries (counter %d), cap %d", n, stemMemoLen.Load(), stemMemoCap)
	}
}

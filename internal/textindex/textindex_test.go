package textindex

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Graph-based Peer Discovery, v2.0!")
	want := []string{"graph", "based", "peer", "discovery", "v2", "0"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ...  "); len(got) != 0 {
		t.Fatalf("Tokenize punctuation = %v, want empty", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Müller naïve café")
	if len(got) != 3 || got[0] != "müller" {
		t.Fatalf("Tokenize unicode = %v", got)
	}
}

func TestTermsDropsStopwordsAndStems(t *testing.T) {
	got := Terms("the quick databases are processing queries")
	for _, tok := range got {
		if IsStopword(tok) {
			t.Fatalf("stopword %q survived: %v", tok, got)
		}
	}
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "databas") {
		t.Fatalf("expected stemmed 'databas' in %v", got)
	}
	if !strings.Contains(joined, "process") {
		t.Fatalf("expected stemmed 'process' in %v", got)
	}
}

func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "is", "go"} {
		if got := Stem(w); got != w {
			t.Fatalf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestPropStemIdempotentForCommonWords(t *testing.T) {
	// Stemming a stem should usually be stable for dictionary-like input.
	words := []string{"connection", "networks", "recommendations", "running",
		"analysis", "citations", "conferences", "sessions", "questions"}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		// Porter is not strictly idempotent in general, but must be for
		// these already-reduced forms.
		if s2 != s1 && Stem(s2) != s2 {
			t.Errorf("Stem unstable: %q -> %q -> %q", w, s1, s2)
		}
	}
}

func TestVectorCosine(t *testing.T) {
	a := Vector{"x": 1, "y": 2}
	b := Vector{"x": 2, "y": 4}
	if c := a.Cosine(b); c < 0.999 {
		t.Fatalf("parallel cosine = %v", c)
	}
	c := Vector{"z": 1}
	if got := a.Cosine(c); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := a.Cosine(Vector{}); got != 0 {
		t.Fatalf("empty cosine = %v", got)
	}
}

func TestVectorAddAndTopTerms(t *testing.T) {
	v := Vector{"a": 1}
	v.Add(Vector{"a": 1, "b": 3}, 2)
	if v["a"] != 3 || v["b"] != 6 {
		t.Fatalf("Add result = %v", v)
	}
	top := v.TopTerms(1)
	if len(top) != 1 || top[0] != "b" {
		t.Fatalf("TopTerms = %v", top)
	}
	if got := v.TopTerms(10); len(got) != 2 {
		t.Fatalf("TopTerms over-length = %v", got)
	}
}

func TestPropCosineSymmetricBounded(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := make(Vector), make(Vector)
		for i, x := range xs {
			a[fmt.Sprintf("t%d", i%8)] += float64(x)
		}
		for i, y := range ys {
			b[fmt.Sprintf("t%d", i%8)] += float64(y)
		}
		c1, c2 := a.Cosine(b), b.Cosine(a)
		if diff := c1 - c2; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		return c1 >= 0 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func buildCorpus(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	docs := map[string]string{
		"p1": "Scalable graph processing on distributed clusters with vertex partitioning",
		"p2": "Community detection in social networks using modularity optimization",
		"p3": "Tensor decomposition methods for multi-relational social media analysis",
		"p4": "Query optimization in relational database systems with cost models",
		"p5": "Graph partitioning heuristics for large scale graph analytics workloads",
	}
	for id, text := range docs {
		ix.Add(id, text)
	}
	return ix
}

func TestSearchBM25RanksRelevantFirst(t *testing.T) {
	ix := buildCorpus(t)
	res := ix.Search("graph partitioning", 3)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].DocID != "p5" && res[0].DocID != "p1" {
		t.Fatalf("top result = %v, want a graph-partitioning paper", res[0])
	}
	// p5 mentions both terms (and graph twice) so it should beat p2/p4.
	for _, r := range res {
		if r.DocID == "p2" && r.Score >= res[0].Score {
			t.Fatalf("irrelevant doc ranked first: %v", res)
		}
	}
}

func TestSearchNoMatch(t *testing.T) {
	ix := buildCorpus(t)
	if res := ix.Search("quantum chromodynamics", 5); len(res) != 0 {
		t.Fatalf("expected no results, got %v", res)
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if res := ix.Search("anything", 5); res != nil {
		t.Fatalf("expected nil, got %v", res)
	}
}

func TestSearchKLimit(t *testing.T) {
	ix := buildCorpus(t)
	res := ix.Search("graph social tensor query", 2)
	if len(res) > 2 {
		t.Fatalf("k not honored: %v", res)
	}
}

func TestAddReplacesDocument(t *testing.T) {
	ix := NewIndex()
	ix.Add("d", "graph processing")
	ix.Add("d", "database systems")
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if res := ix.Search("graph", 5); len(res) != 0 {
		t.Fatalf("old content still searchable: %v", res)
	}
	if res := ix.Search("database", 5); len(res) != 1 {
		t.Fatalf("new content not searchable: %v", res)
	}
}

func TestRemove(t *testing.T) {
	ix := buildCorpus(t)
	ix.Remove("p1")
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for _, r := range ix.Search("graph", 10) {
		if r.DocID == "p1" {
			t.Fatal("removed doc still in results")
		}
	}
	ix.Remove("p1") // double remove is a no-op
}

func TestTextRoundTrip(t *testing.T) {
	ix := buildCorpus(t)
	txt, err := ix.Text("p2")
	if err != nil || !strings.Contains(txt, "Community") {
		t.Fatalf("Text = %q, %v", txt, err)
	}
	if _, err := ix.Text("nope"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDocIDsSorted(t *testing.T) {
	ix := buildCorpus(t)
	ids := ix.DocIDs()
	if len(ids) != 5 {
		t.Fatalf("DocIDs = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
}

func TestTFIDFVector(t *testing.T) {
	ix := buildCorpus(t)
	v, err := ix.TFIDFVector("p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("empty vector")
	}
	// "graph" appears in 2 of 5 docs; "scalable" in 1. For p1 both have
	// tf=1 so the rarer term must weigh more.
	if v[Stem("scalable")] <= v[Stem("graph")] {
		t.Fatalf("idf ordering wrong: scalable=%v graph=%v", v[Stem("scalable")], v[Stem("graph")])
	}
	if _, err := ix.TFIDFVector("nope"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchVectorMatchesContext(t *testing.T) {
	ix := buildCorpus(t)
	ctx := TermFrequency("tensor streams for social media monitoring")
	res := ix.SearchVector(ctx, 2)
	if len(res) == 0 || res[0].DocID != "p3" {
		t.Fatalf("SearchVector top = %v, want p3", res)
	}
	if res := ix.SearchVector(Vector{}, 3); res != nil {
		t.Fatalf("empty query should return nil, got %v", res)
	}
}

func TestExtractKeyphrases(t *testing.T) {
	text := `Graph processing systems partition large graphs across machines.
	Partitioning quality determines communication volume in graph processing.
	We study graph partitioning algorithms and their communication costs.`
	kps := ExtractKeyphrases(text, 5)
	if len(kps) == 0 {
		t.Fatal("no keyphrases")
	}
	found := false
	for _, kp := range kps[:3] {
		if strings.HasPrefix(kp.Term, "graph") || strings.HasPrefix(kp.Term, "partition") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dominant concept missing from top-3: %v", kps)
	}
	for i := 1; i < len(kps); i++ {
		if kps[i].Score > kps[i-1].Score {
			t.Fatalf("not sorted by score: %v", kps)
		}
	}
}

func TestExtractKeyphrasesEmpty(t *testing.T) {
	if kps := ExtractKeyphrases("", 5); kps != nil {
		t.Fatalf("got %v", kps)
	}
	if kps := ExtractKeyphrases("the and of", 5); kps != nil {
		t.Fatalf("stopword-only text gave %v", kps)
	}
}

func TestSplitSentences(t *testing.T) {
	sents := SplitSentences("First sentence. Second one! Third? Trailing")
	if len(sents) != 4 {
		t.Fatalf("SplitSentences = %v", sents)
	}
	if sents[3] != "Trailing" {
		t.Fatalf("trailing fragment lost: %v", sents)
	}
}

func TestExtractSnippets(t *testing.T) {
	doc := `We present a system for large scale data processing.
	The weather in Genoa is pleasant in March.
	Our tensor decomposition method scales to billions of entries.
	Lunch was served at noon.
	Experiments show tensor methods outperform matrix baselines.`
	ctx := TermFrequency("tensor decomposition scalability")
	snips := ExtractSnippets(doc, VectorRun(ctx), 2)
	if len(snips) != 2 {
		t.Fatalf("got %d snippets", len(snips))
	}
	for _, s := range snips {
		if strings.Contains(s.Text, "weather") || strings.Contains(s.Text, "Lunch") {
			t.Fatalf("irrelevant snippet selected: %q", s.Text)
		}
	}
	// Document order must be preserved.
	if snips[0].Start > snips[1].Start {
		t.Fatalf("snippets out of order: %+v", snips)
	}
}

func TestExtractSnippetsEmptyDoc(t *testing.T) {
	if s := ExtractSnippets("", VectorRun(Vector{"x": 1}), 3); s != nil {
		t.Fatalf("got %v", s)
	}
}

func TestExtractSnippetsNoContext(t *testing.T) {
	// With an empty context the positional prior should pick leading
	// sentences.
	doc := "Alpha beta. Gamma delta. Epsilon zeta."
	s := ExtractSnippets(doc, VectorRun(Vector{}), 1)
	if len(s) != 1 || !strings.HasPrefix(s[0].Text, "Alpha") {
		t.Fatalf("got %+v", s)
	}
}

func TestIndexConcurrentAccess(t *testing.T) {
	ix := NewIndex()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ix.Add(fmt.Sprintf("d%d", i%20), "graph database systems research")
		}
	}()
	for i := 0; i < 200; i++ {
		ix.Search("graph", 5)
		ix.Len()
	}
	<-done
}

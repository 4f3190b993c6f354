package textindex

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oracleDot is the map-vector dot product summed in sorted-term order.
func oracleDot(a, b Vector) float64 {
	var terms []string
	for t := range a {
		if _, ok := b[t]; ok {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	var dot float64
	for _, t := range terms {
		dot += a[t] * b[t]
	}
	return dot
}

// oracleNorm is the map-vector norm summed in sorted-term order.
func oracleNorm(v Vector) float64 {
	var s float64
	for _, p := range sortedPairs(v) {
		s += p.w * p.w
	}
	return math.Sqrt(s)
}

// oracleCosine is Vector.Cosine with every sum in sorted-term order.
func oracleCosine(a, b Vector) float64 {
	na, nb := oracleNorm(a), oracleNorm(b)
	if len(a) == 0 || len(b) == 0 || na == 0 || nb == 0 {
		return 0
	}
	return oracleDot(a, b) / (na * nb)
}

// randomVector draws up to n terms of vocab with random weights; one
// draw in six is empty.
func randomVector(rng *rand.Rand, vocab []string, n int) Vector {
	v := Vector{}
	if rng.Intn(6) == 0 {
		return v
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		v[vocab[rng.Intn(len(vocab))]] = rng.Float64() * 4
	}
	return v
}

// TestFlatVectorMatchesMapOracle holds the flat runs to the map vectors
// they replace, on seeded vectors: terms inside and outside the
// snapshot dictionary, empty vectors, runs over one dictionary, over two
// and over a text's own. Dot, norm and cosine equal a map oracle that
// sums in sorted-term order with ==, and the map-order Vector.Cosine
// within 1e-12; a run's map form is its vector; a run compiled against
// the dictionary searches and scores documents exactly as one compiled
// against the frozen base and one over a dictionary of its own.
func TestFlatVectorMatchesMapOracle(t *testing.T) {
	vocab := []string{"graph", "partit", "stream", "tensor", "social", "network", "queri", "rank", "index", "cluster", "zeta", "unseen", "x"}
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		live, ids := randomCorpus(rng, 1+rng.Intn(20))
		base := live.Freeze()
		seg := NewSegmented(base)
		if rng.Intn(2) == 0 {
			seg = seg.WithDocs(map[string]string{"new/1": randomText(rng, 8), ids[0]: randomText(rng, 5)})
		}
		// The dictionary holds part of the vocabulary: vectors with a
		// term outside it get dictionaries of their own.
		d := NewDict(vocab[:3+rng.Intn(len(vocab)-3)], base)
		vecs := make([]Vector, 12)
		for i := range vecs {
			vecs[i] = randomVector(rng, vocab, 6)
		}
		runs := d.CompileAll(vecs)
		for i, v := range vecs {
			r := &runs[i]
			if r.Len() != len(v) || !reflect.DeepEqual(r.Vector(), v) {
				t.Fatalf("trial %d: run %d holds %v, vector %v", trial, i, r.Vector(), v)
			}
			if r.Norm() != oracleNorm(v) {
				t.Fatalf("trial %d: run %d norm %v, oracle %v", trial, i, r.Norm(), oracleNorm(v))
			}
			for j, o := range vecs {
				others := []*CompiledVector{&runs[j], VectorRun(o), base.Compile(o)}
				for _, ro := range others {
					if got, want := r.dot(ro), oracleDot(v, o); got != want {
						t.Fatalf("trial %d: dot(%d, %d) = %v, oracle %v", trial, i, j, got, want)
					}
					got := r.Cosine(ro)
					if want := oracleCosine(v, o); got != want {
						t.Fatalf("trial %d: Cosine(%d, %d) = %v, oracle %v", trial, i, j, got, want)
					}
					if m := v.Cosine(o); math.Abs(got-m) > 1e-12 {
						t.Fatalf("trial %d: Cosine(%d, %d) = %v, map order %v", trial, i, j, got, m)
					}
					checked++
				}
			}
			want := base.Compile(v)
			if got, w := seg.SearchCompiled(r, 5), seg.SearchCompiled(want, 5); !reflect.DeepEqual(got, w) {
				t.Fatalf("trial %d: SearchCompiled(run %d) = %v, base-compiled %v", trial, i, got, w)
			}
			if got, w := base.SearchCompiled(r, 5), base.SearchVector(v, 5); !reflect.DeepEqual(got, w) {
				t.Fatalf("trial %d: frozen SearchCompiled(run %d) = %v, SearchVector %v", trial, i, got, w)
			}
			foreign := VectorRun(v) // merges on terms, not on base IDs
			for _, doc := range seg.DocIDs() {
				got, w := seg.DocCosine(doc, r), seg.DocCosine(doc, want)
				if f := seg.DocCosine(doc, foreign); got != w || f != w {
					t.Fatalf("trial %d: DocCosine(%s, run %d) = %v, base-compiled %v, foreign %v", trial, doc, i, got, w, f)
				}
				if dv, err := seg.TFIDFVector(doc); err == nil && math.Abs(w-dv.Cosine(v)) > 1e-12 {
					t.Fatalf("trial %d: DocCosine(%s, run %d) = %v, map cosine %v", trial, doc, i, w, dv.Cosine(v))
				}
			}
		}
		// A text's own run is its term-frequency vector.
		text := randomText(rng, rng.Intn(12))
		tr := TextRun(text)
		if tf := TermFrequency(text); !reflect.DeepEqual(tr.Vector(), tf) || tr.Norm() != oracleNorm(tf) {
			t.Fatalf("trial %d: TextRun(%q) = %v, TermFrequency %v", trial, text, tr.Vector(), tf)
		}
		if got, want := tr.Cosine(&runs[0]), oracleCosine(TermFrequency(text), vecs[0]); got != want {
			t.Fatalf("trial %d: TextRun cosine %v, oracle %v", trial, got, want)
		}
	}
	var nilRun *CompiledVector
	if nilRun.Cosine(TextRun("graph")) != 0 || TextRun("graph").dot(nilRun) != 0 || nilRun.Len() != 0 {
		t.Fatal("a nil run is not the empty vector")
	}
	if checked < 10000 {
		t.Fatalf("only %d products checked", checked)
	}
}

// TestDictLookup: IDs order like the terms, and every term round-trips.
func TestDictLookup(t *testing.T) {
	terms := []string{"peer", "graph", "a", "graph", "zeta", "graphs", ""}
	d := NewDict(terms, nil)
	want := []string{"", "a", "graph", "graphs", "peer", "zeta"}
	if d.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(want))
	}
	for i, w := range want {
		if got := d.term(int32(i)); got != w {
			t.Fatalf("Term(%d) = %q, want %q", i, got, w)
		}
		if id, ok := d.lookup(w); !ok || id != int32(i) {
			t.Fatalf("Lookup(%q) = %d, %v", w, id, ok)
		}
	}
	for _, missing := range []string{"b", "graphz", "zz", strings.Repeat("a", 3)} {
		if _, ok := d.lookup(missing); ok {
			t.Fatalf("Lookup(%q) found a term the dictionary lacks", missing)
		}
	}
	if d.Bytes() != len(strings.Join(want, ""))+4*len(want) {
		t.Fatalf("Bytes = %d", d.Bytes())
	}
}

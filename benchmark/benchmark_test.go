package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"hive/internal/workload"
)

// --- inputs are a pure function of the seed ------------------------------------

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) ([]byte, []byte) {
		ds := workload.Generate(datasetConfig(seed, 32))
		dsJSON, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		var all []op
		for _, w := range allWorkloads() {
			all = append(all, opList(seed+2, ds, "c", w.Mix, 300)...)
		}
		all = append(all, ladderProbes(seed, ds)...)
		opsJSON, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return dsJSON, opsJSON
	}
	ds1, ops1 := gen(7)
	ds2, ops2 := gen(7)
	if string(ds1) != string(ds2) {
		t.Error("same seed produced different datasets")
	}
	if string(ops1) != string(ops2) {
		t.Error("same seed produced different op lists")
	}
	ds3, ops3 := gen(8)
	if string(ds1) == string(ds3) {
		t.Error("different seeds produced the same dataset")
	}
	if string(ops1) == string(ops3) {
		t.Error("different seeds produced the same op lists")
	}
}

func TestOpListComposition(t *testing.T) {
	ds := workload.Generate(datasetConfig(3, 32))
	for _, w := range allWorkloads() {
		ops := opList(11, ds, "c", w.Mix, 500)
		if len(ops) != 500 {
			t.Fatalf("%s: %d ops, want 500", w.Name, len(ops))
		}
		counts := map[opKind]int{}
		ids := map[string]bool{}
		textWrites := 0
		for _, o := range ops {
			counts[o.Kind]++
			if o.ID != "" {
				if ids[o.ID] {
					t.Errorf("%s: write ID %s drawn twice", w.Name, o.ID)
				}
				ids[o.ID] = true
			}
			if o.Kind == opAsk || o.Kind == opPaper {
				textWrites++
				if o.Probe != (textWrites%probeEvery == 0) {
					t.Errorf("%s: text write %d has Probe=%v", w.Name, textWrites, o.Probe)
				}
			}
			if (o.Kind == opRelationship || o.Kind == opFollow) && (o.Other == "" || o.Other == o.User) {
				t.Errorf("%s: %s pairs %q with %q", w.Name, o.Kind, o.User, o.Other)
			}
		}
		for _, m := range w.Mix {
			if counts[m.Kind] != 5*m.Pct {
				t.Errorf("%s: %d %s ops in 500, want exactly %d", w.Name, counts[m.Kind], m.Kind, 5*m.Pct)
			}
		}
	}
}

// --- percentile arithmetic -------------------------------------------------------

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupportedPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: highest supported percentile %v, want %v", tc.n, got, tc.want)
		}
	}
	if percentileSupported(199, 95) || !percentileSupported(200, 95) {
		t.Error("p95 must need exactly 200 samples: 10 beyond it")
	}
}

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := percentile(xs, 50); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 of 1..10 = %v, want 10", got)
	}
	if !sort.Float64sAreSorted([]float64{xs[1], xs[3]}) || xs[0] != 9 {
		t.Error("percentile must not reorder its input")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	if got, want := spread([]float64{13, 10, 12, 11}), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 10..13 = %v, want %v", got, want)
	}
}

// --- the paced scheduler times from the due instant ------------------------------

// fakeClock is a single-goroutine clock: Sleep advances Now.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// stubServer answers each op after a service time taken from the op's
// ID, by advancing the fake clock.
type stubServer struct {
	clk     *fakeClock
	service map[string]time.Duration
}

func (s *stubServer) do(o op) error {
	s.clk.Sleep(s.service[o.ID])
	return nil
}
func (s *stubServer) probe(op) (int, error) { return 1, nil }

func TestPacedChargesStallToQueuedRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	// 10 requests per second; the first stalls for 350 ms, the rest take 10 ms.
	ops := make([]op, 6)
	srv := &stubServer{clk: clk, service: map[string]time.Duration{}}
	for i := range ops {
		ops[i].ID = string(rune('a' + i))
		srv.service[ops[i].ID] = 10 * time.Millisecond
	}
	srv.service["a"] = 350 * time.Millisecond

	res := runPaced(clk, srv, ops, 1, 10, time.Minute)
	if len(res.Samples) != len(ops) || res.Unsent != 0 {
		t.Fatalf("%d samples, %d unsent; want %d, 0", len(res.Samples), res.Unsent, len(ops))
	}
	// Due at 0, 100, ... ms. a answers at 350. b (due 100) is sent at 350
	// and answers at 360: 260 ms from its due instant, though the server
	// took 10. c (due 200) -> 370: 170. d (due 300) -> 380: 80. e is due
	// at 400, after the queue drained: 10. f: 10.
	want := []float64{350, 260, 170, 80, 10, 10}
	for i, s := range res.Samples {
		if math.Abs(s.LatencyMS-want[i]) > 1e-6 {
			t.Errorf("op %d: latency %v ms from due, want %v", i, s.LatencyMS, want[i])
		}
		// The client was busy, not the generator slow: no lateness.
		if s.LateMS != 0 {
			t.Errorf("op %d: generator lateness %v ms, want 0", i, s.LateMS)
		}
	}
	if got, want := res.Elapsed, 510*time.Millisecond; got != want {
		t.Errorf("phase took %v, want %v", got, want)
	}
}

func TestClosedStopsAtDeadlineAndCountsUnsent(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	srv := &stubServer{clk: clk, service: map[string]time.Duration{}}
	ops := make([]op, 10)
	for i := range ops {
		ops[i].ID = string(rune('a' + i))
		srv.service[ops[i].ID] = 100 * time.Millisecond
	}
	res := runClosed(clk, srv, ops, 1, 450*time.Millisecond)
	if len(res.Samples) != 5 || res.Unsent != 5 {
		t.Errorf("%d sent, %d unsent; the 450 ms deadline admits 5 sends of 100 ms", len(res.Samples), res.Unsent)
	}
}

// --- comparator ------------------------------------------------------------------

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"worse within bound", lower, steady(100), steady(109), verdictOK},
		{"worse beyond bound", lower, steady(100), steady(112), verdictRegressed},
		{"better", lower, steady(100), steady(50), verdictOK},
		{"throughput down beyond bound", higher, steady(1000), steady(880), verdictRegressed},
		{"throughput up", higher, steady(1000), steady(1500), verdictOK},
		{"noisy base hides a regression", lower, []float64{80, 100, 120, 90, 115}, steady(130), verdictUnresolved},
		{"noisy change is not ok either", lower, steady(100), []float64{70, 100, 130, 95, 125}, verdictUnresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{105}, verdictOK},
	} {
		if got := judge(tc.m, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spreads %.3f/%.3f), want %s",
				tc.name, got.Verdict, got.Worse, got.SpreadA, got.SpreadB, tc.want)
		}
	}
}

func TestCompareSetsFailsOnErrorsAndMissingMetrics(t *testing.T) {
	bs := &benchSpec{EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	bs.Workloads = append(bs.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	run := func(setup float64, failed int) *runRecord {
		return &runRecord{Workload: "w", Comparable: true, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metricValue{"setup_s": {setup, "s"}}}
	}
	if _, ok, _ := compareSets(bs, []*runRecord{run(1, 0)}, []*runRecord{run(1.1, 0)}); !ok {
		t.Error("10% slower set-up under a 25% bound must pass")
	}
	if _, ok, _ := compareSets(bs, []*runRecord{run(1, 0)}, []*runRecord{run(1, 1)}); ok {
		t.Error("a higher error ratio must fail the comparison")
	}
	quick := run(1, 0)
	quick.Comparable = false
	if _, ok, _ := compareSets(bs, []*runRecord{run(1, 0)}, []*runRecord{quick}); ok {
		t.Error("a -quick run is not comparable and must leave the metric missing")
	}
}

// --- BENCHMARK.json agrees with the code ------------------------------------------

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bs, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(bs.Workloads), len(workloads))
	}
	for i, w := range bs.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	names := func(ms []metricSpec) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got := names(bs.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end_to_end metrics differ:\n BENCHMARK.json %v\n code           %v", got, endToEndUnits)
	}
	if got := names(bs.PerLayer); !reflect.DeepEqual(got, perLayerUnits) {
		t.Errorf("per_layer metrics differ:\n BENCHMARK.json %v\n code           %v", got, perLayerUnits)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, bs.EndToEnd...), bs.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q breaks the contract's naming rules", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range bs.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s, unit s, lower is better")
	}
	if runs := 4 + 22*len(bs.Workloads); bs.RunSeconds < 1 || bs.RunSeconds > 60 || runs*bs.RunSeconds > 3420 {
		t.Errorf("run_seconds %d: %d runs cannot fit 3420 s", bs.RunSeconds, runs)
	}
}

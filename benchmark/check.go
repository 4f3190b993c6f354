package main

import (
	"fmt"
	"os"
)

// percentileOf names the percentile behind each percentile metric, so
// the validator can ask whether the sample carries it.
var percentileOf = map[string]float64{
	"primary_p50_ms":      50,
	"e2e.read_p50_ms":     50,
	"e2e.op_p95_ms":       95,
	"loadgen.late_p95_ms": 95,
}

// checkRuns validates a results set against the contract and returns
// one line per problem found. An empty result means the set is valid.
func checkRuns(bs *benchSpec, runs []*runRecord, wholeSet bool) []string {
	var problems []string
	bad := func(rec *runRecord, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s seed %d traced=%v: ", rec.Workload, rec.Seed, rec.Traced)+fmt.Sprintf(format, args...))
	}
	known := map[string]bool{}
	for _, w := range bs.Workloads {
		known[w.Name] = true
	}
	seen := map[string]bool{}
	for _, rec := range runs {
		if !known[rec.Workload] {
			if _, ok := findWorkload(rec.Workload); !ok {
				bad(rec, "workload is not in BENCHMARK.json")
			}
			continue // an ungated workload: nothing to hold it to
		}
		seen[rec.Workload] = true
		if !rec.Comparable {
			bad(rec, "run is stamped not comparable (-quick)")
		}
		present := func(kind string, have map[string]metricValue, want []metricSpec) {
			for _, m := range want {
				got, ok := have[m.Name]
				switch {
				case !ok:
					bad(rec, "%s metric %s is missing", kind, m.Name)
				case got.Unit != m.Unit:
					bad(rec, "%s metric %s has unit %q, BENCHMARK.json says %q", kind, m.Name, got.Unit, m.Unit)
				}
			}
		}
		present("end-to-end", rec.EndToEnd, bs.EndToEnd)
		if rec.Traced {
			present("per-layer", rec.PerLayer, bs.PerLayer)
		}
		for name, p := range percentileOf {
			if n, ok := rec.Samples[name]; ok && !percentileSupported(n, p) {
				bad(rec, "%s rests on n=%d: only %d samples beyond p%v, need %d", name, n, samplesBeyond(n, p), p, minBeyond)
			}
		}
		if rec.Failed > 0 {
			bad(rec, "%d of %d ops failed", rec.Failed, rec.Attempted)
		}
		for _, ck := range rec.Checks {
			if !ck.OK {
				bad(rec, "check %s failed: %s", ck.Name, ck.Detail)
			}
		}
		if rec.Claim != nil {
			bad(rec, "a benchmark run claims no gain, yet claim is %q", *rec.Claim)
		}
	}
	if wholeSet {
		for _, w := range bs.Workloads {
			if !seen[w.Name] {
				problems = append(problems, fmt.Sprintf("no run of workload %s in the set", w.Name))
			}
		}
	}
	return problems
}

// checkMain is the -check mode: non-zero when any check fails.
func checkMain(path string) int {
	bs, err := loadBenchSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -check:", err)
		return 2
	}
	runs, err := loadRuns(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -check:", err)
		return 2
	}
	info, _ := os.Stat(path)
	problems := checkRuns(bs, runs, info != nil && info.IsDir())
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	fmt.Printf("checked %d runs against %d end-to-end and %d per-layer metrics: %d problems\n",
		len(runs), len(bs.EndToEnd), len(bs.PerLayer), len(problems))
	if len(problems) > 0 {
		return 1
	}
	return 0
}

package main

import (
	"fmt"
	"os"
)

// verdict of one workload × metric comparison.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row: a metric on a workload, base set A against
// set B.
type comparison struct {
	Workload string
	Metric   metricSpec
	A, B     float64 // medians
	SpreadA  float64 // IQR / median of each side's runs
	SpreadB  float64
	Worse    float64 // how much worse B is than A, as a share of A; negative = better
	Verdict  verdict
}

// judge compares two sides' runs of one metric. B regresses when its
// median is worse than A's by more than the bound. When either side's
// own run-to-run spread is wider than the bound the difference cannot
// be told from noise, and the row is unresolved rather than ok.
func judge(m metricSpec, a, b []float64) comparison {
	c := comparison{Metric: m, A: median(a), B: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	if c.A != 0 {
		c.Worse = (c.B - c.A) / c.A
		if m.Better == "higher" {
			c.Worse = -c.Worse
		}
	}
	switch {
	case c.SpreadA > m.Bound || c.SpreadB > m.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse > m.Bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// endToEndValues collects, per workload and metric, the values of the
// untraced comparable runs of a set.
func endToEndValues(runs []*runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Traced || !r.Comparable {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// errorRatio is failed over attempted, summed over a workload's runs.
func errorRatio(runs []*runRecord, workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareSets builds every row and reports whether B is acceptable: no
// regression and no higher error ratio on any workload.
func compareSets(bs *benchSpec, a, b []*runRecord) (rows []comparison, acceptable bool, notes []string) {
	acceptable = true
	va, vb := endToEndValues(a), endToEndValues(b)
	for _, w := range bs.Workloads {
		for _, m := range bs.EndToEnd {
			xa, xb := va[w.Name][m.Name], vb[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				notes = append(notes, fmt.Sprintf("%s %s: missing on one side (A n=%d, B n=%d)", w.Name, m.Name, len(xa), len(xb)))
				acceptable = false
				continue
			}
			c := judge(m, xa, xb)
			c.Workload = w.Name
			rows = append(rows, c)
			if c.Verdict == verdictRegressed {
				acceptable = false
			}
		}
		if ea, eb := errorRatio(a, w.Name), errorRatio(b, w.Name); eb > ea {
			notes = append(notes, fmt.Sprintf("%s error_ratio: %.6f -> %.6f (any increase fails)", w.Name, ea, eb))
			acceptable = false
		} else {
			notes = append(notes, fmt.Sprintf("%s error_ratio: %.6f -> %.6f", w.Name, ea, eb))
		}
	}
	return rows, acceptable, notes
}

// compareMain is the -compare mode.
func compareMain(pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
		return 2
	}
	bs, err := loadBenchSpec()
	if err != nil {
		return fail(err)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return fail(err)
	}
	rows, ok, notes := compareSets(bs, a, b)
	printComparison(pathA, pathB, rows, notes)
	if !ok {
		return 1
	}
	return 0
}

func printComparison(pathA, pathB string, rows []comparison, notes []string) {
	fmt.Printf("A (base) = %s\nB        = %s\n", pathA, pathB)
	fmt.Printf("%-14s %-18s %12s %12s %-6s %-22s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "B/A (base A)", "IQR%A", "IQR%B", "bound", "verdict")
	for _, c := range rows {
		ratio := "n/a"
		if c.A != 0 {
			ratio = fmt.Sprintf("%.4f of %.4g %s", c.B/c.A, c.A, c.Metric.Unit)
		}
		fmt.Printf("%-14s %-18s %12.4f %12.4f %-6s %-22s %6.1f%% %6.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric.Name, c.A, c.B, c.Metric.Unit, ratio,
			c.SpreadA*100, c.SpreadB*100, c.Metric.Bound*100, c.Verdict)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
}

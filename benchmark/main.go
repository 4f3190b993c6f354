// Command benchmark (hiveload) is the repository's benchmark: it builds
// cmd/hived, boots it as a separate process, loads a seed-generated
// conference dataset through the SDK, and drives one of four traffic
// mixes through hive/client from two keep-alive connections — a closed
// phase for throughput, then an open-loop paced phase whose latencies
// count from each request's due instant. It prints every metric by name
// and unit, checks the answers, and writes one results JSON per run.
//
//	bash benchmark/run.sh --workload read_search --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same run also scrapes the server's own counters
// and replays a probe list in-process, timing each layer's public entry
// points (the ladder); spans go to <out>/trace-*.jsonl. Two more modes
// read results instead of producing them:
//
//	-check   FILE|DIR        validate results against BENCHMARK.json
//	-compare A B             A and B each a results file or directory
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// overallTimeout is the watchdog: the contract allows a run 180 s.
const overallTimeout = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 1, "seed of the dataset and the op lists")
		seconds      = flag.Int("seconds", 10, "length of the timed phases together")
		trace        = flag.Int("trace", 0, "1 = also scrape per-layer counters and run the in-process ladder")
		quick        = flag.Bool("quick", false, "smoke mode: tiny dataset and op counts; results are stamped not comparable")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for results, logs and traces")
		checkPath    = flag.String("check", "", "validate a results file or directory and exit")
		compare      = flag.Bool("compare", false, "compare two results files or directories given as arguments and exit")
	)
	flag.Parse()

	switch {
	case *checkPath != "":
		os.Exit(checkMain(*checkPath))
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two results files or directories")
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1)))
	}

	var specs []workloadSpec
	if *workloadName == "all" {
		specs = workloads
	} else if spec, ok := findWorkload(*workloadName); ok {
		specs = []workloadSpec{spec}
	} else {
		fatalf("unknown --workload %q; want one of %s, or all", *workloadName, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("--seconds %d outside 1..60", *seconds)
	}

	// The generator never uses more cores than the box has, and never
	// more than its two clients need.
	if runtime.NumCPU() < runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	watchdog := time.AfterFunc(overallTimeout*time.Duration(len(specs)), func() { sig <- syscall.SIGALRM })
	defer watchdog.Stop()
	go func() {
		s := <-sig
		cancel()
		killAllChildren()
		if root, err := repoRoot(); err == nil {
			os.RemoveAll(filepath.Join(root, buildDir, "run")) // the ladder's data dirs
		}
		fmt.Fprintf(os.Stderr, "benchmark: stopped by %v; child servers killed\n", s)
		os.Exit(2)
	}()

	for _, spec := range specs {
		rec, err := runWorkload(ctx, runOptions{
			Spec: spec, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, OutDir: *outDir,
		})
		if err != nil {
			killAllChildren()
			fatalf("%s: %v", spec.Name, err)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("run-%s-s%d-t%d.json", spec.Name, *seed, b2i(rec.Traced)))
		if err := writeJSON(path, rec); err != nil {
			fatalf("write results: %v", err)
		}
		// A run that printed its result exits 0 even when a check failed:
		// the verdict is the line's "correct", and -check turns it into an
		// exit code for whoever wants one.
		printRecord(rec, path)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, w := range ungated {
		names = append(names, w.Name+" (ungated)")
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRecord prints every metric by name and unit, the per-class
// table and the checks, then — as the last line of standard output —
// the one-line JSON result the driver reads.
func printRecord(rec *runRecord, path string) {
	fmt.Printf("== %s  seed %d  %d s  traced=%v  comparable=%v  commit %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Comparable, rec.Meta.Commit)
	fmt.Printf("   %d rounds, each a fresh server: warm-up %d ops, closed %d (2 clients, back to back), paced %d at %.0f/s; hived %s\n",
		rec.Meta.Rounds, rec.Meta.WarmupOps, rec.Meta.ClosedOps, rec.Meta.PacedOps, rec.Meta.PacedRate, strings.Join(rec.Meta.HivedFlags, " "))
	fmt.Println("-- end to end (median of the rounds)")
	for _, name := range slices.Sorted(maps.Keys(rec.EndToEnd)) {
		m := rec.EndToEnd[name]
		n := ""
		if c, ok := rec.Samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("   %-28s %14.4f %s%s\n", name, m.Value, m.Unit, n)
	}
	for i, v := range rec.Rounds {
		fmt.Printf("   round %d: setup %.4f s, throughput %.2f 1/s, primary p50 %.4f ms, cpu %.4f ms/op, rss %.2f MB\n",
			i+1, v.SetupS, v.ThroughputOpsS, v.PrimaryP50MS, v.CPUMSPerOp, v.RSSMB)
	}
	if rec.Traced {
		fmt.Println("-- per layer")
		for _, name := range slices.Sorted(maps.Keys(rec.PerLayer)) {
			m := rec.PerLayer[name]
			fmt.Printf("   %-40s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, phase := range []string{"closed", "paced"} {
		fmt.Printf("-- per class, %s phase (ms%s)\n", phase, map[string]string{"closed": " from send", "paced": " from due instant"}[phase])
		for _, name := range slices.Sorted(maps.Keys(rec.Classes[phase])) {
			c := rec.Classes[phase][name]
			fmt.Printf("   %-14s n=%-6d p50 %10.4f   p%-4v %10.4f   failed %d\n", name, c.N, c.P50MS, c.TailPct, c.TailMS, c.Failed)
		}
	}
	fmt.Println("-- checks")
	for _, ck := range rec.Checks {
		verdict := "ok  "
		switch {
		case !ck.OK && ck.Advisory:
			verdict = "WARN"
		case !ck.OK:
			verdict = "FAIL"
		}
		fmt.Printf("   %s %-22s %s\n", verdict, ck.Name, ck.Detail)
	}
	for _, f := range rec.Failures {
		fmt.Printf("   failure: %s\n", f)
	}
	fmt.Printf("-- results written to %s; claim: null\n", path)

	metrics := rec.EndToEnd
	if rec.Traced {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		fatalf("encode result line: %v", err)
	}
	fmt.Println(string(line))
}

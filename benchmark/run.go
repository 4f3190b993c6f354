package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hive/internal/workload"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// classStat is one service class's latency in one phase.
type classStat struct {
	N       int     `json:"n"`
	Failed  int     `json:"failed"`
	P50MS   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"` // highest percentile n supports, 0 if none
	TailMS  float64 `json:"tail_ms"`
}

// checkResult is one pass/fail verdict of the run's own validation.
// An output check judges what the server answered and decides the run's
// "correct"; an advisory check judges whether the box gave the run the
// time and the samples its numbers need, which a slow host can fail with
// every answer right. -check refuses a run that fails either kind.
type checkResult struct {
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Advisory bool   `json:"advisory,omitempty"`
	Detail   string `json:"detail"`
}

// runMeta records what a reader needs to repeat or compare the run.
type runMeta struct {
	Commit       string   `json:"commit"`
	GoVersion    string   `json:"go_version"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Clients      int      `json:"clients"`
	HivedFlags   []string `json:"hived_flags"`
	FlushPolicy  string   `json:"flush_policy"`
	DatasetUsers int      `json:"dataset_users"`
	Rounds       int      `json:"rounds"`     // servers set up and measured, one after another
	WarmupOps    int      `json:"warmup_ops"` // ops per round, as are the next two
	ClosedOps    int      `json:"closed_ops"`
	PacedOps     int      `json:"paced_ops"`
	PacedRate    float64  `json:"paced_rate_ops_s"`
	StartedAt    string   `json:"started_at"`
}

// runRecord is the results JSON of one invocation on one workload.
type runRecord struct {
	Workload   string                          `json:"workload"`
	Seed       int64                           `json:"seed"`
	Seconds    int                             `json:"seconds"`
	Traced     bool                            `json:"traced"`
	Comparable bool                            `json:"comparable"`
	Meta       runMeta                         `json:"meta"`
	Correct    bool                            `json:"correct"`
	Attempted  int                             `json:"attempted"` // ops sent
	Failed     int                             `json:"failed"`
	Unsent     int                             `json:"unsent"` // ops a phase deadline cut off
	EndToEnd   map[string]metricValue          `json:"end_to_end"`
	PerLayer   map[string]metricValue          `json:"per_layer,omitempty"`
	Samples    map[string]int                  `json:"samples"` // n behind each percentile metric
	Classes    map[string]map[string]classStat `json:"classes"` // phase -> class -> stat
	Rounds     []roundValues                   `json:"rounds"`  // what each round read; end_to_end holds the medians
	Checks     []checkResult                   `json:"checks"`
	Failures   []string                        `json:"failures,omitempty"`
	Claim      *string                         `json:"claim"` // always null: a benchmark run claims no gain
}

// roundValues are one round's readings of the end-to-end metrics.
type roundValues struct {
	SetupS         float64 `json:"setup_s"`
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	PrimaryP50MS   float64 `json:"primary_p50_ms"`
	RSSMB          float64 `json:"rss_mb"`
	CPUMSPerOp     float64 `json:"cpu_ms_per_op"`
}

// flushPolicy is stated, not chosen: the benchmark passes no durability
// flag, so each commit runs with the flush behaviour it ships.
const flushPolicy = "as shipped by the commit under test (at the defining commit: buffered write + flush to the page cache per record, no fsync)"

// runOptions are the knobs of one invocation.
type runOptions struct {
	Spec    workloadSpec
	Seed    int64
	Seconds int
	Trace   bool
	Quick   bool
	OutDir  string
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// phaseOps sizes one phase's op list in one round from the frozen
// constants.
func phaseOps(perSec, share float64, seconds, rounds int, quick bool) int {
	n := int(math.Round(perSec * share * float64(seconds) / float64(rounds)))
	if quick {
		n /= 20
	}
	if n < 20 {
		n = 20
	}
	return n
}

// phaseDeadline is when a phase planned to take plannedSec stops sending:
// slack times the plan, and never under ten seconds, so that only a
// starved host meets it.
func phaseDeadline(plannedSec, slack float64) time.Duration {
	return max(time.Duration(plannedSec*slack*float64(time.Second)), 10*time.Second)
}

// round is what one instance of the server measured: its set-up, the
// three phases, and the readings taken around the two timed ones.
type round struct {
	setup               time.Duration
	warm, closed, paced phaseResult
	before, after       scrape // GET /metrics around the timed phases
	sdkRequests         int    // requests the SDK says it sent in them
	cpuSec              float64
	rss                 []float64
	procAfter           procStat
	diskBefore          diskUsage
	diskAfter           diskUsage
	elapsed             time.Duration
}

func served(s scrape) int { return int(s.sum("hive_http_requests_total", nil, auxRoutes)) }

func (r *round) timedOps() int { return len(r.closed.Samples) + len(r.paced.Samples) }
func (r *round) timedRequests() int {
	return requestsOf(r.closed.Samples) + requestsOf(r.paced.Samples)
}
func (r *round) phases() []phaseResult {
	return []phaseResult{r.warm, r.closed, r.paced}
}

// primary returns the paced-phase latencies of the workload's primary class.
func (r *round) primary(kind opKind) []float64 {
	var out []float64
	for _, s := range r.paced.Samples {
		if s.Kind == kind && !s.Probe {
			out = append(out, s.LatencyMS)
		}
	}
	return out
}

// roundPlan is what every round of a run is given: the same server
// shape, dataset, op lists and deadlines.
type roundPlan struct {
	bin, root, stderrPath         string
	spec                          workloadSpec
	ds                            *workload.Dataset
	warm, closed, paced           []op
	closedDeadline, pacedDeadline time.Duration
}

// runRound boots a fresh server, sets it up, and runs warm-up, closed
// phase, quiesce and paced phase against it. beforeWarm, if not nil, is
// given the target once the server is set up and before its first op.
func runRound(ctx context.Context, p roundPlan, beforeWarm func(*target) error) (*round, error) {
	h, took, err := setUp(ctx, p.bin, p.root, p.spec, p.ds, p.stderrPath)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	r := &round{setup: took}

	c, err := h.newClient(ctx)
	if err != nil {
		return nil, err
	}
	tgt := &target{c: c, ctx: ctx, immutable: !hasWrites(p.spec.Mix)}
	clk := wallClock{}
	if beforeWarm != nil {
		if err := beforeWarm(tgt); err != nil {
			return nil, err
		}
	}

	// Warm-up: untimed, checked. Caches fill and lazy set-up finishes.
	r.warm = runClosed(clk, tgt, p.warm, clients, time.Minute)

	if r.before, err = h.scrape(ctx); err != nil {
		return nil, err
	}
	reqBefore, _ := c.Stats()
	procBefore, err := h.procStat()
	if err != nil {
		return nil, err
	}
	r.diskBefore = h.diskUsage()
	timedStart := time.Now()
	stopRSS := h.sampleRSS(rssSampleEvery)

	r.closed = runClosed(clk, tgt, p.closed, clients, p.closedDeadline)
	// The closed phase ends with maintenance in flight on write workloads;
	// let it land, untimed, so the paced phase starts from the same state
	// whenever the closed phase happened to stop.
	if err := h.quiesce(ctx); err != nil {
		stopRSS()
		return nil, err
	}
	r.paced = runPaced(clk, tgt, p.paced, clients, p.spec.PacedRate, p.pacedDeadline)

	r.elapsed = time.Since(timedStart)
	r.rss = stopRSS()
	reqAfter, _ := c.Stats()
	r.sdkRequests = int(reqAfter - reqBefore)
	if r.procAfter, err = h.procStat(); err != nil {
		return nil, err
	}
	r.cpuSec = r.procAfter.CPUSec - procBefore.CPUSec
	r.diskAfter = h.diskUsage()
	// The server counts a request once its handler has returned, and an
	// answer longer than net/http's write buffer reaches the client before
	// that: give the last requests a moment to be counted.
	r.after, err = h.scrape(ctx)
	for i := 0; err == nil && i < 50 && served(r.after)-served(r.before) < r.timedRequests(); i++ {
		time.Sleep(10 * time.Millisecond)
		r.after, err = h.scrape(ctx)
	}
	return r, err
}

// runWorkload is one whole invocation: build, then several rounds, each
// on a server of its own — set up, warm up, the two timed phases, the
// scrape and /proc readings — then the checks and, when traced, the
// in-process ladder. Every end-to-end metric is the median of the
// rounds' values.
func runWorkload(ctx context.Context, opt runOptions) (*runRecord, error) {
	spec := opt.Spec
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildHived(ctx, root)
	if err != nil {
		return nil, err
	}

	users, warm, rounds := datasetUsers, warmupOps, roundsPerRun
	if opt.Quick {
		users, warm, rounds = 64, 20, 1
	}
	nClosed := phaseOps(spec.ClosedOpsPerSec, closedShare, opt.Seconds, rounds, opt.Quick)
	nPaced := phaseOps(spec.PacedRate, pacedShare, opt.Seconds, rounds, opt.Quick)

	rec := &runRecord{
		Workload: spec.Name, Seed: opt.Seed, Seconds: opt.Seconds, Traced: opt.Trace,
		Comparable: !opt.Quick,
		Meta: runMeta{
			Commit: commitOf(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
			HivedFlags: spec.hivedFlags("DIR"), FlushPolicy: flushPolicy, DatasetUsers: users,
			Rounds: rounds, WarmupOps: warm, ClosedOps: nClosed, PacedOps: nPaced, PacedRate: spec.PacedRate,
			StartedAt: time.Now().UTC().Format(time.RFC3339),
		},
		EndToEnd: map[string]metricValue{}, Samples: map[string]int{},
		Classes: map[string]map[string]classStat{},
	}

	// Inputs: the dataset, and three op lists from the seed. Every round
	// sends the same lists to a server that has seen none of them.
	ds := workload.Generate(datasetConfig(datasetSeed, users))
	plan := roundPlan{
		bin: bin, root: root, spec: spec, ds: ds,
		warm:       opList(opt.Seed+1, ds, "w", spec.Mix, warm),
		closed:     opList(opt.Seed+2, ds, "c", spec.Mix, nClosed),
		paced:      opList(opt.Seed+3, ds, "p", spec.Mix, nPaced),
		stderrPath: filepath.Join(opt.OutDir, fmt.Sprintf("hived-%s-s%d-t%d.stderr", spec.Name, opt.Seed, b2i(opt.Trace))),
	}
	plan.closedDeadline = phaseDeadline(float64(nClosed)/spec.ClosedOpsPerSec, closedSlack)
	plan.pacedDeadline = phaseDeadline(float64(nPaced)/spec.PacedRate, pacedSlack)
	_ = os.Remove(plan.stderrPath) // a log of an earlier run with the same arguments

	var lad *ladder
	if opt.Trace {
		if lad, err = openLadder(root, spec, ds); err != nil {
			return nil, err
		}
		defer lad.close()
	}
	var rs []*round
	for i := 0; i < rounds; i++ {
		var beforeWarm func(*target) error
		if opt.Trace && i == 0 {
			beforeWarm = func(tgt *target) error {
				defer lad.closeBackends()
				return checkParity(ctx, rec, lad, tgt, opt.Seed, ds)
			}
		}
		r, err := runRound(ctx, plan, beforeWarm)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		rs = append(rs, r)
	}
	last := rs[len(rs)-1]

	// Ledger, and the samples of all rounds pooled per phase.
	var closedAll, pacedAll []sample
	probes, probeFails := 0, 0
	for _, r := range rs {
		for _, ph := range r.phases() {
			rec.Attempted += len(ph.Samples)
			rec.Unsent += ph.Unsent
			for _, s := range ph.Samples {
				if s.Failed {
					rec.Failed++
				}
				if s.Probe {
					probes++
					if s.Failed {
						probeFails++
					}
				}
			}
			rec.Failures = append(rec.Failures, ph.Failures...)
		}
		closedAll = append(closedAll, r.closed.Samples...)
		pacedAll = append(pacedAll, r.paced.Samples...)
	}
	rec.Classes["closed"] = classStats(closedAll)
	rec.Classes["paced"] = classStats(pacedAll)
	reads, all := pooled(pacedAll)
	late := lateness(pacedAll)

	// End to end: each round's value, and their median.
	minPrimary, accounted := math.MaxInt, true
	timedOps, timedReqs, sdkReqs, servedReqs := 0, 0, 0, 0
	for _, r := range rs {
		primary := r.primary(spec.Primary)
		minPrimary = min(minPrimary, len(primary))
		rec.Rounds = append(rec.Rounds, roundValues{
			SetupS:         r.setup.Seconds(),
			ThroughputOpsS: float64(succeeded(r.closed.Samples)) / r.closed.Elapsed.Seconds(),
			PrimaryP50MS:   percentile(primary, 50),
			RSSMB:          median(r.rss),
			CPUMSPerOp:     r.cpuSec * 1000 / float64(max(r.timedOps(), 1)),
		})
		got := served(r.after) - served(r.before)
		accounted = accounted && got == r.timedRequests() && r.sdkRequests == r.timedRequests()
		timedOps, timedReqs, sdkReqs, servedReqs = timedOps+r.timedOps(), timedReqs+r.timedRequests(), sdkReqs+r.sdkRequests, servedReqs+got
	}
	over := func(f func(roundValues) float64) float64 {
		xs := make([]float64, len(rec.Rounds))
		for i, v := range rec.Rounds {
			xs[i] = f(v)
		}
		return median(xs)
	}
	rec.setEndToEnd("setup_s", over(func(v roundValues) float64 { return v.SetupS }))
	rec.setEndToEnd("throughput_ops_s", over(func(v roundValues) float64 { return v.ThroughputOpsS }))
	rec.setEndToEnd("primary_p50_ms", over(func(v roundValues) float64 { return v.PrimaryP50MS }))
	rec.setEndToEnd("rss_mb", over(func(v roundValues) float64 { return v.RSSMB }))
	rec.Samples["primary_p50_ms"] = minPrimary // of the round with the fewest
	rec.Samples["e2e.read_p50_ms"] = len(reads)
	rec.Samples["e2e.op_p95_ms"] = len(all)
	rec.Samples["loadgen.late_p95_ms"] = len(late)

	// Checks. A failed output check fails the run, not just a row.
	check := func(name string, ok bool, format string, args ...any) {
		rec.Checks = append(rec.Checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	advise := func(name string, ok bool, format string, args ...any) {
		rec.Checks = append(rec.Checks, checkResult{Name: name, OK: ok, Advisory: true, Detail: fmt.Sprintf(format, args...)})
	}
	check("no_failed_ops", rec.Failed == 0, "%d of %d ops sent failed, were refused, timed out or broke an answer invariant", rec.Failed, rec.Attempted)
	advise("phases_completed", rec.Unsent == 0, "%d ops were cut off by a phase deadline (closed %v, paced %v) and never sent", rec.Unsent, plan.closedDeadline, plan.pacedDeadline)
	check("requests_accounted", accounted,
		"in every round ops sent = SDK requests = hive_http_requests_total delta; over %d rounds: %d ops in %d requests, SDK %d, server %d", len(rs), timedOps, timedReqs, sdkReqs, servedReqs)
	latePct, lateP := tailOf(late, 95)
	advise("generator_on_time", lateP <= lateLimitMS, "paced sends were late by %.3f ms at p%v (limit %v ms, n=%d)", lateP, latePct, lateLimitMS, len(late))
	if !opt.Quick {
		advise("primary_p50_supported", percentileSupported(minPrimary, 50), "primary_p50_ms (%s) rests on n>=%d per round (%d beyond)", spec.Primary, minPrimary, samplesBeyond(minPrimary, 50))
		advise("p50_supported", percentileSupported(len(reads), 50), "e2e.read_p50_ms rests on n=%d (%d beyond)", len(reads), samplesBeyond(len(reads), 50))
		advise("p95_supported", percentileSupported(len(all), 95), "e2e.op_p95_ms rests on n=%d (%d beyond)", len(all), samplesBeyond(len(all), 95))
	}
	check("read_your_write", probeFails == 0, "%d of %d read-your-write probes failed", probeFails, probes)

	if opt.Trace {
		rec.PerLayer = map[string]metricValue{}
		rec.setLayer("e2e.read_p50_ms", percentile(reads, 50))
		rec.setLayer("e2e.op_p95_ms", percentile(all, 95))
		// Counters, /proc and disk are those of the last round's server.
		scrapeLayers(rec, last.before, last.after, last.elapsed, last.procAfter, last.diskBefore, last.diskAfter, lateP)
		// CPU per op is a ratio of totals over all rounds: a round's own
		// ratio takes one of two values by whether three or four compactions
		// fell into it.
		cpuSec := 0.0
		for _, r := range rs {
			cpuSec += r.cpuSec
		}
		rec.setLayer("proc.cpu_ms_per_op", cpuSec*1000/float64(max(timedOps, 1)))
		// No server is running from here on; the ladder has the box.
		if err := finishTrace(ctx, rec, lad, opt, closedAll); err != nil {
			return nil, err
		}
	}

	rec.Correct = true
	for _, ck := range rec.Checks {
		rec.Correct = rec.Correct && (ck.OK || ck.Advisory)
	}
	return rec, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func hasWrites(mix []mixEntry) bool {
	for _, m := range mix {
		if m.Kind.isWrite() {
			return true
		}
	}
	return false
}

func requestsOf(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.Requests
	}
	return n
}

func succeeded(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.Failed {
			n++
		}
	}
	return n
}

// pooled returns the latencies of a phase's reads (probes included) and
// of all its ops. Failed ops stay in: a refused request is not a fast
// one, and the run is already marked incorrect.
func pooled(samples []sample) (reads, all []float64) {
	for _, s := range samples {
		all = append(all, s.LatencyMS)
		if !s.Kind.isWrite() {
			reads = append(reads, s.LatencyMS)
		}
	}
	return reads, all
}

func lateness(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.Probe {
			out = append(out, s.LateMS)
		}
	}
	return out
}

// tailOf returns the p-th percentile if the sample supports it, else
// the highest percentile it does support.
func tailOf(xs []float64, p float64) (pct, value float64) {
	if !percentileSupported(len(xs), p) {
		p = highestSupportedPercentile(len(xs))
	}
	if p == 0 {
		return 0, 0
	}
	return p, percentile(xs, p)
}

// classStats summarises a phase per service class.
func classStats(samples []sample) map[string]classStat {
	by := map[string][]float64{}
	failed := map[string]int{}
	for _, s := range samples {
		name := s.Kind.String()
		if s.Probe {
			name = "ryw_probe"
		}
		by[name] = append(by[name], s.LatencyMS)
		if s.Failed {
			failed[name]++
		}
	}
	out := map[string]classStat{}
	for name, xs := range by {
		pct, tail := tailOf(xs, 95)
		out[name] = classStat{N: len(xs), Failed: failed[name], P50MS: percentile(xs, 50), TailPct: pct, TailMS: tail}
	}
	return out
}

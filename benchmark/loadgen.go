package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the paced scheduler; tests substitute a
// fake whose Sleep advances Now.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// sample is one timed request.
type sample struct {
	Kind opKind
	// LatencyMS is the time to the answer: from the send in the closed
	// phase, from the instant the request was due in the paced phase.
	LatencyMS float64
	// LateMS is how late the generator itself ran (paced phase only): how
	// long after the request was due, or after the sending client came
	// free if that was later, the request went out. Waiting for a busy
	// client is the server's doing and is charged to LatencyMS instead.
	LateMS float64
	Probe  bool // a read-your-write probe, pooled with the reads
	// Requests is how many HTTP requests the op sent: 1, except for a
	// probe that had to wait for its write to become visible.
	Requests int
	Failed   bool
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	Samples  []sample
	Elapsed  time.Duration
	Unsent   int      // ops the deadline cut off: never attempted, so neither sent nor failed
	Failures []string // first few failure messages
}

const maxFailureNotes = 8

type recorder struct {
	mu  sync.Mutex
	res phaseResult
}

func (r *recorder) add(s sample, err error) {
	r.mu.Lock()
	if err != nil {
		s.Failed = true
		if len(r.res.Failures) < maxFailureNotes {
			r.res.Failures = append(r.res.Failures, err.Error())
		}
	}
	r.res.Samples = append(r.res.Samples, s)
	r.mu.Unlock()
}

func msSince(clk clock, t time.Time) float64 {
	return float64(clk.Now().Sub(t)) / float64(time.Millisecond)
}

// runOp sends one op (and its read-your-write probe, if it carries one)
// and records both. due is the instant latency is charged from, free
// the instant the sending client finished its previous request.
func runOp(clk clock, t doer, rec *recorder, o op, due, free time.Time, paced bool) {
	sent := clk.Now()
	from := sent
	late := 0.0
	if paced {
		from = due
		ready := due
		if free.After(due) {
			ready = free
		}
		late = float64(sent.Sub(ready)) / float64(time.Millisecond)
	}
	err := t.do(o)
	rec.add(sample{Kind: o.Kind, LatencyMS: msSince(clk, from), LateMS: late, Requests: 1}, err)
	if o.Probe && err == nil {
		// The probe is due the instant its write is acknowledged; its
		// latency is the time until the write was visible.
		start := clk.Now()
		n, perr := t.probe(o)
		rec.add(sample{Kind: opSearch, LatencyMS: msSince(clk, start), Probe: true, Requests: n}, perr)
	}
}

// doer is the part of target the phases need; tests substitute a stub.
type doer interface {
	do(op) error
	probe(op) (requests int, err error)
}

// runClosed sends ops back to back from `workers` goroutines, each
// sending its next request only when the previous one was answered, and
// stops at the deadline.
func runClosed(clk clock, t doer, ops []op, workers int, deadline time.Duration) phaseResult {
	var rec recorder
	var next atomic.Int64
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || clk.Now().Sub(start) > deadline {
					return
				}
				runOp(clk, t, &rec, ops[i], time.Time{}, time.Time{}, false)
			}
		}()
	}
	wg.Wait()
	rec.res.Elapsed = clk.Now().Sub(start)
	rec.res.Unsent = unsent(len(ops), rec.res.Samples)
	return rec.res
}

// runPaced is the open loop: op i is due at start + i/rate whatever the
// server does. Workers take ops in order; a worker that finds its op
// already due sends at once, and the op's latency still counts from the
// due instant, so a stall charges every request queued behind it.
func runPaced(clk clock, t doer, ops []op, workers int, rate float64, deadline time.Duration) phaseResult {
	var rec recorder
	var next atomic.Int64
	start := clk.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || clk.Now().Sub(start) > deadline {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				runOp(clk, t, &rec, ops[i], due, free, true)
				free = clk.Now()
			}
		}()
	}
	wg.Wait()
	rec.res.Elapsed = clk.Now().Sub(start)
	rec.res.Unsent = unsent(len(ops), rec.res.Samples)
	return rec.res
}

// unsent is how many of n ops the deadline cut off: every op sent left
// exactly one sample that is not a probe.
func unsent(n int, samples []sample) int {
	for _, s := range samples {
		if !s.Probe {
			n--
		}
	}
	return n
}

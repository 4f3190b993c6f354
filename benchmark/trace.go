package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	"hive/internal/workload"
)

// parityQueries is how many searches of each kind are compared between
// the real process and the in-process backends.
const parityQueries = 40

// ctxScoreTolerance is the relative difference allowed between two
// builds' context-search scores at one rank; a wrong or missing
// context moves scores by tens of percents.
const ctxScoreTolerance = 1e-2

// checkParity compares what hived answers with what an in-process
// backend over the same dataset answers, before any write has reached
// either. Plain search must match both shapes ID for ID (the sharded
// read path promises bit-identical ranking). Context search is compared
// with the backend of the workload's own shape, score by score and
// within ctxScoreTolerance: the context vector comes out of a spreading
// activation over the concept map whose float sums follow map order, so
// two builds of one dataset disagree by up to a part in a thousand and
// near-equal documents may swap places; and the sharded variant is
// shard-local by design.
func checkParity(ctx context.Context, rec *runRecord, lad *ladder, tgt *target, seed int64, ds *workload.Dataset) error {
	g := newGenerator(seed+6, ds, "q")
	var plainBad, ctxBad []string
	for i := 0; i < parityQueries; i++ {
		o := g.next(opSearch)
		got, err := tgt.c.Search(ctx, o.Query, "", "", searchK)
		if err != nil {
			return fmt.Errorf("parity search: %w", err)
		}
		for _, be := range []*backend{lad.be, lad.other} {
			want, err := be.search(ctx, o.Query, "", searchK)
			if err != nil {
				return fmt.Errorf("parity reference: %w", err)
			}
			if len(got.Items) != len(want) {
				plainBad = append(plainBad, fmt.Sprintf("%q: %d results, reference %d", o.Query, len(got.Items), len(want)))
				continue
			}
			for j := range want {
				if got.Items[j].DocID != want[j].DocID {
					plainBad = append(plainBad, fmt.Sprintf("%q rank %d: %s, reference %s", o.Query, j, got.Items[j].DocID, want[j].DocID))
					break
				}
			}
		}

		o = g.next(opCtxSearch)
		gotCtx, err := tgt.c.Search(ctx, o.Query, o.User, "", searchK)
		if err != nil {
			return fmt.Errorf("parity context search: %w", err)
		}
		want, err := lad.be.search(ctx, o.Query, o.User, searchK)
		if err != nil {
			return fmt.Errorf("parity reference: %w", err)
		}
		if len(gotCtx.Items) != len(want) {
			ctxBad = append(ctxBad, fmt.Sprintf("%q for %s: %d results, reference %d", o.Query, o.User, len(gotCtx.Items), len(want)))
			continue
		}
		for j := range want {
			if a, b := gotCtx.Items[j].Score, want[j].Score; math.Abs(a-b) > ctxScoreTolerance*math.Max(math.Abs(a), math.Abs(b)) {
				ctxBad = append(ctxBad, fmt.Sprintf("%q for %s rank %d: score %v, reference %v", o.Query, o.User, j, a, b))
				break
			}
		}
	}
	verdict := func(name string, bad []string, what string) {
		detail := fmt.Sprintf("%d %s agree with the in-process reference", parityQueries, what)
		if len(bad) > 0 {
			detail = fmt.Sprintf("%d of %d %s differ, first: %s", len(bad), parityQueries, what, bad[0])
		}
		rec.Checks = append(rec.Checks, checkResult{Name: name, OK: len(bad) == 0, Detail: detail})
	}
	verdict("parity_search", plainBad, "searches (top-k IDs, unsharded and 4 shards)")
	verdict("parity_ctx_search", ctxBad, "context searches (top-k scores, same shape)")
	return nil
}

// finishTrace runs the ladder once the real process is idle, turns the
// rungs into per-layer metrics and writes the spans.
func finishTrace(ctx context.Context, rec *runRecord, lad *ladder, opt runOptions, closed []sample) error {
	if err := lad.run(ctx, opt.Seed); err != nil {
		return err
	}
	lad.layers(rec.setLayer)

	// Tracing overhead: the ladder's L0 against the real process, on the
	// workload's primary class.
	top := opt.Spec.Primary
	rung := "client." + top.String()
	if top.isWrite() {
		rung = "client.write"
	}
	var real []float64
	for _, s := range closed {
		if s.Kind == top && !s.Probe {
			real = append(real, s.LatencyMS*1000)
		}
	}
	rec.setLayer("trace.overhead_ratio", lad.med(rung)/median(real)-1)

	path := filepath.Join(opt.OutDir, "trace.jsonl")
	if err := lad.writeSpans(path); err != nil {
		return err
	}
	rec.Checks = append(rec.Checks, checkResult{Name: "trace_written", OK: true, Detail: fmt.Sprintf("%d spans in %s", len(lad.spans), path)})
	return nil
}

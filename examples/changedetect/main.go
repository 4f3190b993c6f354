// Changedetect demonstrates SCENT (paper §2.4) on the platform's own
// activity stream: it loads a workload, appends a burst of 120
// questions about one paper as the stream's last events, encodes the
// stream once as a tensor stream of 60-event epochs, and runs the
// sketched detector and the exact detector over that same stream,
// timing each and printing the epochs each flags. On this workload the
// two disagree and neither isolates the burst (epochs 6-8): the
// sketched detector flags epoch 4 and the exact one flags none. On a
// stream this small the exact diff is also the faster of the two: a
// sketch costs 64 measurements per nonzero cell, the diff one pass.
// The detectors' thresholds are not tuned to the example.
package main

import (
	"fmt"
	"log"
	"time"

	"hive"
	"hive/internal/core"
	"hive/internal/tensor"
	"hive/internal/workload"
)

func main() {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	ds := workload.Generate(workload.Config{Seed: 7, Users: 40})
	if err := ds.Load(p.Store()); err != nil {
		log.Fatal(err)
	}

	// Inject a burst: one paper suddenly receives a storm of questions
	// (the "presentation raises his curiosity" moment at scale).
	hot := ds.Papers[0]
	for i := 0; i < 120; i++ {
		q := hive.Question{
			ID:     fmt.Sprintf("burst-q%d", i),
			Author: ds.Users[i%len(ds.Users)].ID,
			Target: hot.ID,
			Text:   "Burst question about the hot paper",
		}
		if err := p.Ask(q); err != nil {
			log.Fatal(err)
		}
	}

	// Build the stream once; both detectors read the same epochs.
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	events := p.Store().EventsSince(0, 0)
	stream, sk, err := core.ActivityTensorStream(events, p.Users(), eng.TargetKind, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d events in %d epochs of 60; the burst is the last 120 events, epochs %d-%d\n",
		len(events), len(stream), (len(events)-120)/60, len(stream)-1)

	start := time.Now()
	sketched, err := tensor.MonitorSketched(sk, stream, &tensor.Detector{})
	if err != nil {
		log.Fatal(err)
	}
	sketchTime := time.Since(start)
	start = time.Now()
	exact, err := tensor.MonitorExact(stream, &tensor.Detector{})
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(start)

	fmt.Println("epoch  sketched distance  exact distance")
	for i := range stream {
		fmt.Printf("%5d  %17.3f  %14.3f\n", i, sketched[i].Distance, exact[i].Distance)
	}
	fmt.Printf("sketched (64 measurements): %v, flagged epochs:%s\n", sketchTime, flagged(sketched))
	fmt.Printf("exact (Frobenius):          %v, flagged epochs:%s\n", exactTime, flagged(exact))
}

// flagged lists the epochs a detector reports as structural changes.
func flagged(rs []tensor.StreamResult) string {
	out := ""
	for _, r := range rs {
		if r.Change {
			out += fmt.Sprintf(" %d", r.Epoch)
		}
	}
	if out == "" {
		return " none"
	}
	return out
}

// Sharded write-path and scatter-gather benchmarks (E18; hiveload's
// sharded_mixed workload measures the same paths over real HTTP).
//
//	go test -bench='Sharded|ScatterGather|ScatterFeed' -benchmem
package hive_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hive"
	"hive/internal/workload"
)

// benchClockSafe is benchClock for concurrent writers: shards lock
// independently, so the shared clock must be race-free.
func benchClockSafe() func() time.Time {
	base := time.Unix(1363000000, 0)
	var ticks atomic.Int64
	return func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * time.Second)
	}
}

// BenchmarkShardedWrite measures aggregate write throughput through the
// routed write path at 1/2/4 shards. Every write publishes a paper —
// store mutation, change events, and the synchronous delta fold into
// the owning shard's serving snapshot — under a Zipf-skewed owner
// distribution, so the win is real pipeline parallelism surviving a
// realistic hot-owner skew, not a uniform best case. ns/op is the
// inverse of throughput: at 4 shards it should be well under half the
// 1-shard figure (the E18 acceptance bar is ≥1.8x).
func BenchmarkShardedWrite(b *testing.B) {
	const owners = 256
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sh, err := hive.OpenSharded(n, hive.Options{Clock: benchClockSafe()})
			if err != nil {
				b.Fatal(err)
			}
			defer sh.Close()
			for i := 0; i < owners; i++ {
				if err := sh.RegisterUser(hive.User{
					ID: fmt.Sprintf("w%03d", i), Name: "Writer"}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sh.Refresh(); err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seq.Add(1)))
				zipf := rand.NewZipf(rng, 1.2, 1, owners-1)
				for pb.Next() {
					owner := fmt.Sprintf("w%03d", zipf.Uint64())
					id := seq.Add(1)
					if err := sh.PublishPaper(hive.Paper{
						ID:       fmt.Sprintf("bw-%d", id),
						Title:    "sharded write path throughput under owner skew",
						Abstract: "per owner shard leaders fold change events into independent delta pipelines",
						Authors:  []string{owner},
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkScatterGatherSearch measures exact cross-shard search: every
// shard scores its local postings under merged global statistics and a
// k-way merge assembles the final top k, bit-identical to an unsharded
// node (TestShardedParity proves the identity; this prices it).
func BenchmarkScatterGatherSearch(b *testing.B) {
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sh, err := hive.OpenSharded(n, hive.Options{Clock: benchClockSafe()})
			if err != nil {
				b.Fatal(err)
			}
			defer sh.Close()
			if err := sh.Batched(func() error { return ds.LoadRouted(sh) }); err != nil {
				b.Fatal(err)
			}
			if err := sh.Refresh(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Search(context.Background(), "graph partitioning streams", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScatterFeed measures the cross-shard feed: every shard lists
// its newest-first sequence keys for the reader's followees and the
// k-way merge decodes only the events the 20-event first page returns
// (TestShardedFeedLazyMatchesEager pins page, order, cursor and the
// decode bound; this prices it). Readers rotate over every user that
// follows someone.
func BenchmarkScatterFeed(b *testing.B) {
	ds := workload.Generate(workload.Config{Seed: 42, Users: 64})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sh, err := hive.OpenSharded(n, hive.Options{Clock: benchClockSafe()})
			if err != nil {
				b.Fatal(err)
			}
			defer sh.Close()
			if err := sh.Batched(func() error { return ds.LoadRouted(sh) }); err != nil {
				b.Fatal(err)
			}
			var readers []string
			for _, u := range sh.Users() {
				if page, _, err := sh.FeedPage(context.Background(), u, "", 20); err == nil && len(page) > 0 {
					readers = append(readers, u)
				}
			}
			if len(readers) == 0 {
				b.Fatal("no user has a feed")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sh.FeedPage(context.Background(), readers[i%len(readers)], "", 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

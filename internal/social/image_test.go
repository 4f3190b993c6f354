package social_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hive/internal/social"
	"hive/internal/workload"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStoreImageBudget bounds the heap an in-memory store keeps live on
// the seed-13 128-user dataset, after the load and after 4 200 more
// comment, check-in and follow writes: packed leaves brought it from
// 1.33 to ≈ 0.6 MB and from 3.55 to ≈ 1.6 MB (EXPERIMENTS.md, "Packed
// store image"). ImageBytes, which the hive_store_image_bytes gauge
// reports, must account for the kv image within 15 % of that heap.
func TestStoreImageBudget(t *testing.T) {
	ds := workload.Generate(workload.Config{Seed: 13, Users: 128})
	at := time.Unix(1363000000, 0)
	clock := func() time.Time { at = at.Add(time.Second); return at }
	before := liveHeap()
	st, err := social.Open("", clock)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check := func(when string, budget uint64) {
		t.Helper()
		live, image := liveHeap()-before, st.ImageBytes()
		t.Logf("%s: store live heap %.3f MB, image %.3f MB", when, float64(live)/1e6, float64(image)/1e6)
		if live > budget {
			t.Errorf("%s: the store holds %d B live, budget %d", when, live, budget)
		}
		if d := float64(image) - float64(live); d > 0.15*float64(live) || -d > 0.15*float64(live) {
			t.Errorf("%s: ImageBytes = %d, %.0f %% off the live heap %d", when, image, 100*d/float64(live), live)
		}
	}
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	check("after the load", 800_000)

	rng := rand.New(rand.NewSource(13))
	user := func() string { return ds.Users[rng.Intn(len(ds.Users))].ID }
	for i := 0; i < 4200; i++ {
		switch i % 3 {
		case 0:
			err = st.PostComment(social.Comment{ID: fmt.Sprintf("bc%05d", i), Author: user(),
				Target: ds.Papers[rng.Intn(len(ds.Papers))].ID, Text: "A comment on the method and its evaluation."})
		case 1:
			err = st.CheckIn(ds.Sessions[rng.Intn(len(ds.Sessions))].ID, user())
		default:
			if a, b := user(), user(); a != b {
				err = st.Follow(a, b)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check("after 4 200 writes", 2_100_000)
	runtime.KeepAlive(ds)
}

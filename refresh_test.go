package hive_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hive"
	"hive/internal/metrics"
	"hive/internal/workload"
)

func refreshPlatform(t *testing.T, users int) *hive.Platform {
	t.Helper()
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ds := workload.Generate(workload.Config{Seed: 42, Users: users})
	if err := ds.Load(p.Store()); err != nil {
		t.Fatal(err)
	}
	return p
}

// overflowFold leaves the serving snapshot stale at its current
// generation — the one way a write does not fold its own delta: a
// single batch of more than 4096 events is skipped (a gap) in favour of
// a compaction, which the batch starts in the background. It rewrites
// one user, so the corpus the compaction builds stays small.
func overflowFold(t *testing.T, p *hive.Platform) {
	t.Helper()
	st := p.Store()
	err := st.Batched(func() error {
		for i := 0; i < 4200; i++ {
			if err := st.PutUser(hive.User{ID: "newbie", Name: "New"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stale() {
		t.Fatal("a skipped batch did not mark the snapshot stale")
	}
}

// TestRefreshObservesBuildStages checks that one compaction reports
// each of its build's stages, in run order, on the stage histogram.
func TestRefreshObservesBuildStages(t *testing.T) {
	stages := []string{"textindex", "conceptmap", "connections", "coauthor",
		"attendance", "qa", "knowledgebase", "integrate", "interactions",
		"contextvectors", "usercontent"}
	hist := metrics.Default.HistogramVec(metrics.BuildStageSeconds, "", nil, "stage")
	before := map[string]uint64{}
	for _, s := range stages {
		before[s] = hist.With(s).Count()
	}
	p := refreshPlatform(t, 12)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range eng.BuildStages() {
		got = append(got, s.Name)
	}
	if !reflect.DeepEqual(got, stages) {
		t.Fatalf("build stages %v, want %v", got, stages)
	}
	for _, s := range stages {
		if hist.With(s).Count() <= before[s] {
			t.Errorf("stage %q: no observation after a compaction", s)
		}
	}
}

// TestSnapshotGraphBytesGauge checks that a compaction's swap sets the
// shard's hive_snapshot_graph_bytes gauge to the serving snapshot's
// graph layout size, and that a write's delta, which shares the
// graphs, leaves it standing.
func TestSnapshotGraphBytesGauge(t *testing.T) {
	gauge := metrics.Default.GaugeVec(metrics.SnapshotGraphBytes, "", "shard").With("0")
	p := refreshPlatform(t, 12)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	eng := p.Snapshot()
	want := eng.GraphBytes()
	if want == 0 || gauge.Value() != float64(want) {
		t.Fatalf("gauge = %v after a compaction, snapshot layouts hold %d B", gauge.Value(), want)
	}
	if err := p.Store().PutUser(hive.User{ID: "newbie", Name: "New"}); err != nil {
		t.Fatal(err)
	}
	if eng2 := p.Snapshot(); eng2 == eng || eng2.GraphBytes() != want || gauge.Value() != float64(want) {
		t.Fatalf("after a delta: gauge %v, snapshot layouts %d B, want %d", gauge.Value(), eng2.GraphBytes(), want)
	}
}

// TestSnapshotVectorBytesGauge checks that a compaction's swap sets the
// shard's hive_snapshot_vector_bytes gauge to the serving snapshot's
// text vector size, and that a write's delta, which adds a context row,
// leaves the gauge at the compaction's value.
func TestSnapshotVectorBytesGauge(t *testing.T) {
	gauge := metrics.Default.GaugeVec(metrics.SnapshotVectorBytes, "", "shard").With("0")
	p := refreshPlatform(t, 12)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	eng := p.Snapshot()
	want := eng.VectorBytes()
	if want == 0 || gauge.Value() != float64(want) {
		t.Fatalf("gauge = %v after a compaction, snapshot vectors hold %d B", gauge.Value(), want)
	}
	if err := p.Store().PutUser(hive.User{ID: "newbie", Name: "New", Interests: []string{"graphs"}}); err != nil {
		t.Fatal(err)
	}
	if eng2 := p.Snapshot(); eng2 == eng || eng2.VectorBytes() <= want || gauge.Value() != float64(want) {
		t.Fatalf("after a delta: gauge %v, snapshot vectors %d B, compaction's %d", gauge.Value(), eng2.VectorBytes(), want)
	}
}

// TestSnapshotLifecycle covers the delta-world snapshot lifecycle: a
// write through the raw store is folded into the serving snapshot
// synchronously (one delta swap), so the platform is *current* right
// after the write — only unapplied events would make it stale.
func TestSnapshotLifecycle(t *testing.T) {
	p := refreshPlatform(t, 12)
	if p.Snapshot() != nil {
		t.Fatal("snapshot before first build")
	}
	if !p.Stale() || p.Generation() != 0 {
		t.Fatalf("pre-build state: stale=%v gen=%d", p.Stale(), p.Generation())
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	first := p.Snapshot()
	if first == nil || p.Stale() || p.Generation() != 1 {
		t.Fatalf("post-build state: snap=%v stale=%v gen=%d", first, p.Stale(), p.Generation())
	}
	if err := p.State().LastRefreshError; err != "" {
		t.Fatalf("last_refresh_error after success = %q", err)
	}
	if c := p.State().Compactions; c != 1 {
		t.Fatalf("compactions = %d, want 1", c)
	}

	// A write through the raw store — bypassing the Platform wrappers —
	// feeds the typed change log and applies as a synchronous delta: by
	// the time the write returns, a *new* snapshot serves it and the
	// platform is current, not stale.
	if err := p.Store().PutPaper(hive.Paper{
		ID: "p-delta", Title: "Freshly published delta paper",
		Abstract: "Visible without a rebuild.", Authors: []string{p.Users()[0]},
	}); err != nil {
		t.Fatal(err)
	}
	if p.Stale() {
		t.Fatal("snapshot stale after the delta applied (applied overlay means current)")
	}
	second := p.Snapshot()
	if second == first {
		t.Fatal("write did not swap in a delta snapshot")
	}
	if p.DeltasApplied() == 0 {
		t.Fatal("no delta recorded")
	}
	if res := second.Search("freshly published delta paper", 5); len(res) == 0 {
		t.Fatal("write not visible in search through the delta snapshot")
	}
	// The old snapshot still serves, without the write (readers holding
	// it mid-request are unaffected by the swap).
	if res := first.Search("freshly published delta paper", 5); len(res) != 0 {
		t.Fatal("previous snapshot mutated by the delta")
	}

	// Engine() is read-your-writes but needs no rebuild: the delta
	// already applied.
	gen := p.Generation()
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng != second || p.Generation() != gen {
		t.Fatalf("Engine() rebuilt a current snapshot: gen %d -> %d", gen, p.Generation())
	}

	// Refresh stays available as explicit compaction: it folds the
	// overlay into a fresh base and clears the delta counters.
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ds := p.Snapshot().DeltaStats(); ds.Deltas != 0 || ds.OverlayDocs != 0 {
		t.Fatalf("compaction left delta state: %+v", ds)
	}
}

// TestSnapshotLifecycleOverflow pins the fallback behind the delta
// path: a batch too large to fold marks the snapshot stale until a full
// rebuild swaps in, and Engine() waits for that rebuild.
func TestSnapshotLifecycleOverflow(t *testing.T) {
	p := refreshPlatform(t, 12)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	first := p.Snapshot()
	compactions := p.State().Compactions
	overflowFold(t, p)
	eng, err := p.Engine() // read-your-writes: waits for the rebuild
	if err != nil {
		t.Fatal(err)
	}
	if eng == first {
		t.Fatal("Engine() returned the stale snapshot")
	}
	if p.Stale() || p.State().Compactions == compactions {
		t.Fatalf("after Engine(): stale=%v gen=%d, %d compaction(s)", p.Stale(), p.Generation(), p.State().Compactions-compactions)
	}
}

// TestOverflowThenLibraryReadConverges: a standalone Platform — no
// server to kick a refresh, no AutoRefresh loop — bulk-loads more
// events than one fold takes (4096) and then only reads. The service
// methods answer from the published snapshot, so the first read may
// predate the load, but the write that skipped it has started the
// compaction that closes the gap: the load becomes visible without any
// explicit maintenance call.
func TestOverflowThenLibraryReadConverges(t *testing.T) {
	p := refreshPlatform(t, 8)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	author := p.Users()[0]
	err := p.Batched(func() error {
		for i := 0; i < 4200; i++ {
			if err := p.PublishPaper(hive.Paper{
				ID: fmt.Sprintf("bulk-%d", i), Title: "Zymurgy of overflowed queues", Authors: []string{author},
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stale() || !p.CompactionDue() {
		t.Fatalf("setup: Stale=%v CompactionDue=%v, want a skipped batch", p.Stale(), p.CompactionDue())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := p.Search("zymurgy", 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("library reads served the pre-load snapshot indefinitely (%d results, stale=%v)", len(res), p.Stale())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.Stale() {
		t.Fatal("still stale after the read-kicked compaction served the load")
	}
}

// TestPendingOverflowFallsBackToCompaction floods the store with a
// batch too large to fold while no snapshot exists: staleness persists,
// and the next refresh recovers everything with one full build.
func TestPendingOverflowFallsBackToCompaction(t *testing.T) {
	p := refreshPlatform(t, 8) // the loader emits thousands of events pre-build
	if !p.Stale() {
		t.Fatal("want stale before the first build")
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if p.Stale() {
		t.Fatal("stale after compaction")
	}
	// Everything the flood wrote is served.
	eng := p.Snapshot()
	if eng == nil || len(p.Users()) < 8 {
		t.Fatalf("snapshot incomplete after the compaction")
	}
}

// TestCompactionDueByPolicy drives CompactionDue through the overlay
// threshold rather than through overflow: every write folds its own
// delta, so the snapshot is never stale, and the 257th overlay document
// is the first past the 256 the policy allows. The compaction folds the
// overlay into a fresh base.
func TestCompactionDueByPolicy(t *testing.T) {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.RegisterUser(hive.User{ID: "ann", Name: "Ann"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	publish := func(i int) {
		t.Helper()
		err := p.PublishPaper(hive.Paper{ID: fmt.Sprintf("p%d", i), Title: "Overlay growth", Authors: []string{"ann"}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		publish(i)
	}
	if ds := p.Snapshot().DeltaStats(); p.CompactionDue() || ds.OverlayDocs != 256 {
		t.Fatalf("at the threshold: due=%v, stats %+v", p.CompactionDue(), ds)
	}
	publish(256)
	if !p.CompactionDue() || p.Stale() {
		t.Fatalf("257 overlay docs: due=%v stale=%v, want due and current", p.CompactionDue(), p.Stale())
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ds := p.Snapshot().DeltaStats(); p.CompactionDue() || ds.OverlayDocs != 0 {
		t.Fatalf("after compaction: due=%v, stats %+v", p.CompactionDue(), ds)
	}
	if res, err := p.Search("overlay growth", 300); err != nil || len(res) != 257 {
		t.Fatalf("compacted base serves %d of 257 papers (err %v)", len(res), err)
	}
}

// TestRefreshSingleFlight asserts that concurrent Refresh calls
// coalesce into far fewer rebuilds than callers.
func TestRefreshSingleFlight(t *testing.T) {
	p := refreshPlatform(t, 24)
	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := p.Refresh(); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if g := p.Generation(); g == 0 || g >= callers {
		t.Fatalf("generation = %d after %d concurrent Refresh calls, want coalescing", g, callers)
	}
}

// TestReadsServeOldSnapshotDuringRebuild hammers Snapshot/knowledge
// reads while rebuilds run in a loop: readers must always observe a
// fully built snapshot, never nil and never an error.
func TestReadsServeOldSnapshotDuringRebuild(t *testing.T) {
	p := refreshPlatform(t, 16)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	uid := p.Users()[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng := p.Snapshot()
				if eng == nil {
					t.Error("nil snapshot during rebuild")
					return
				}
				if _, err := eng.RecommendPeers(uid, 3); err != nil {
					t.Errorf("read during rebuild: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		// Mutate so each refresh really rebuilds, then swap.
		if err := p.RegisterUser(hive.User{ID: "loadgen", Name: "L", Bio: time.Now().String()}); err != nil {
			t.Fatal(err)
		}
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestAutoRefresh(t *testing.T) {
	p := refreshPlatform(t, 8)
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	gen := p.Generation()
	p.AutoRefresh(10 * time.Millisecond)
	defer p.StopAutoRefresh()

	// No writes -> no rebuilds, the loop must not churn.
	time.Sleep(50 * time.Millisecond)
	if g := p.Generation(); g != gen {
		t.Fatalf("auto-refresh rebuilt a clean snapshot: gen %d -> %d", gen, g)
	}

	// A skipped batch stays stale until a compaction swaps in, which
	// is exactly what this test observes.
	overflowFold(t, p)
	deadline := time.Now().Add(5 * time.Second)
	for p.Generation() == gen {
		if time.Now().After(deadline) {
			t.Fatal("auto-refresh did not pick up the write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.Stale() {
		t.Fatal("still stale after auto-refresh")
	}
}

// TestWriteVisibleOnReturn pins the freshness promise: a write is
// served by the knowledge services when it returns — while a
// compaction builds beside it and under concurrent writers — a bulk
// load that skips the fold is served by the compaction it starts, with
// no further call, and a compaction finishes under steady writes.
func TestWriteVisibleOnReturn(t *testing.T) {
	// publish writes one paper with a unique title and reports whether
	// a search for that title finds it as soon as the write returns.
	publish := func(t *testing.T, p *hive.Platform, author, id string) bool {
		t.Helper()
		title := "Vizzle " + id
		if err := p.PublishPaper(hive.Paper{ID: id, Title: title, Authors: []string{author}}); err != nil {
			t.Fatal(err)
		}
		res, err := p.Search(title, 1)
		if err != nil {
			t.Fatal(err)
		}
		return len(res) == 1 && res[0].DocID == hive.DocPaper+id
	}
	// word spells i in letters, so every title carries its own term.
	word := func(i int) string {
		w := []byte("q")
		for ; i > 0; i /= 26 {
			w = append(w, byte('a'+i%26))
		}
		return string(w)
	}

	t.Run("during_compaction", func(t *testing.T) {
		p := refreshPlatform(t, 512)
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
		author := p.Users()[0]
		compactions := p.State().Compactions
		p.RefreshAsync()
		var missed []string
		for i := 0; i < 5; i++ {
			id := "mid" + word(i+1)
			if !publish(t, p, author, id) {
				missed = append(missed, id)
			}
		}
		if p.State().Compactions != compactions {
			t.Fatal("setup: the compaction swapped before the writes returned; they did not overlap it")
		}
		if len(missed) > 0 {
			t.Errorf("%d of 5 writes issued mid-compaction were not served on return: %v", len(missed), missed)
		}
		// The compaction's swap keeps every write the old snapshot served.
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			id := "mid" + word(i+1)
			if res, err := p.Search("Vizzle "+id, 1); err != nil || len(res) != 1 || res[0].DocID != hive.DocPaper+id {
				t.Errorf("after the swap, %s is not served: %v, %v", id, res, err)
			}
		}
	})

	t.Run("concurrent_writers", func(t *testing.T) {
		p := refreshPlatform(t, 16)
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
		const writers, each = 4, 150
		users := p.Users()
		var missed [writers]int
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if !publish(t, p, users[w], fmt.Sprintf("w%d%s", w, word(i+1))) {
						missed[w]++
					}
				}
			}()
		}
		wg.Wait()
		total := 0
		for _, m := range missed {
			total += m
		}
		if total > 0 {
			t.Errorf("%d of %d concurrent writes were not served on return (per writer %v)", total, writers*each, missed)
		}
	})

	t.Run("bulk_load_mid_compaction", func(t *testing.T) {
		p := refreshPlatform(t, 128)
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
		author := p.Users()[0]
		p.RefreshAsync()
		err := p.Batched(func() error {
			for i := 0; i < 4200; i++ {
				if err := p.PublishPaper(hive.Paper{
					ID: fmt.Sprintf("bulk-%d", i), Title: "Zymurgy of skipped batches", Authors: []string{author},
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			res, err := p.Search("zymurgy", 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 5 && !p.Stale() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the bulk load was never served (%d results, stale=%v)", len(res), p.Stale())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})

	// A compaction finishes while writes keep arriving: more than 4096
	// events fold beside its build, its swap replays them all, and
	// Refresh returns with every write served instead of building again
	// until the writes stop.
	t.Run("steady_writes_during_compaction", func(t *testing.T) {
		p := refreshPlatform(t, 512)
		if err := p.Refresh(); err != nil {
			t.Fatal(err)
		}
		author := p.Users()[0]
		st := p.Store()
		done := make(chan error, 1)
		go func() { done <- p.Refresh() }()

		// Each pass is one Batched write of 1000 cheap events (one user
		// rewritten) and a paper with its own title.
		const perPass, maxEvents = 1000, 200_000
		var titles []string
		events := 0
		for refreshed := false; !refreshed; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				refreshed = true
				continue
			default:
			}
			if events > maxEvents {
				t.Fatalf("the compaction did not return while writes continued (%d events written)", events)
			}
			title := fmt.Sprintf("Steady %s", word(len(titles)+1))
			err := st.Batched(func() error {
				for i := 0; i < perPass; i++ {
					if err := st.PutUser(hive.User{ID: "steady", Name: "Steady", Bio: fmt.Sprint(i)}); err != nil {
						return err
					}
				}
				return st.PutPaper(hive.Paper{ID: "steady" + word(len(titles)+1), Title: title, Authors: []string{author}})
			})
			if err != nil {
				t.Fatal(err)
			}
			titles = append(titles, title)
			events += perPass + 1
		}
		if events <= 4096+perPass+1 {
			t.Fatalf("setup: only %d events were written while the compaction ran; want more than 4096", events)
		}
		t.Logf("%d events written while the compaction ran", events)
		if p.Stale() {
			t.Fatal("stale after the compaction returned")
		}
		for _, title := range titles {
			if res, err := p.Search(title, 1); err != nil || len(res) != 1 {
				t.Errorf("%q is not served after the compaction: %v, %v", title, res, err)
			}
		}
	})
}

package social

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchedFiresHooksOnce is the contract behind POST /api/v1/batch:
// N writes inside one Batched pass cost exactly one mutation
// notification (one snapshot invalidation) instead of N.
func TestBatchedFiresHooksOnce(t *testing.T) {
	st, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var fires atomic.Int32
	st.OnChange(func([]ChangeEvent) { fires.Add(1) })

	const n = 20
	err = st.Batched(func() error {
		for i := 0; i < n; i++ {
			if err := st.PutUser(User{ID: fmt.Sprintf("u%02d", i), Name: "U"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 1 {
		t.Fatalf("hook fired %d times for %d batched writes, want 1", got, n)
	}
	if got := len(st.Users()); got != n {
		t.Fatalf("users = %d, want %d", got, n)
	}

	// Outside a batch, per-write fan-out is unchanged.
	if err := st.PutUser(User{ID: "solo"}); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 2 {
		t.Fatalf("hook fired %d times after solo write, want 2", got)
	}
}

// TestBatchedFiresOnError: a failing batch still notifies once, since
// earlier writes may have persisted.
func TestBatchedFiresOnError(t *testing.T) {
	st, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var fires atomic.Int32
	st.OnChange(func([]ChangeEvent) { fires.Add(1) })

	boom := errors.New("boom")
	err = st.Batched(func() error {
		if err := st.PutUser(User{ID: "persisted"}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := fires.Load(); got != 1 {
		t.Fatalf("hook fired %d times, want 1", got)
	}
}

// TestBatchedNests: nested batches coalesce into the outermost one.
func TestBatchedNests(t *testing.T) {
	st, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var fires atomic.Int32
	st.OnChange(func([]ChangeEvent) { fires.Add(1) })

	err = st.Batched(func() error {
		if err := st.PutUser(User{ID: "a"}); err != nil {
			return err
		}
		return st.Batched(func() error { return st.PutUser(User{ID: "b"}) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 1 {
		t.Fatalf("hook fired %d times, want 1", got)
	}
}

// TestChangeEventsTyped checks the typed change log: each mutator emits
// events naming the entity it touched and the refs a delta repair
// needs, with monotone sequence numbers.
func TestChangeEventsTyped(t *testing.T) {
	st, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var mu sync.Mutex
	var batches [][]ChangeEvent
	st.OnChange(func(evs []ChangeEvent) {
		mu.Lock()
		batches = append(batches, evs)
		mu.Unlock()
	})
	take := func() []ChangeEvent {
		mu.Lock()
		defer mu.Unlock()
		if len(batches) == 0 {
			return nil
		}
		b := batches[len(batches)-1]
		batches = nil
		return b
	}

	if err := st.PutUser(User{ID: "ann", Name: "Ann"}); err != nil {
		t.Fatal(err)
	}
	evs := take()
	if len(evs) != 1 || evs[0].EntityType != EntityUser || evs[0].ID != "ann" || evs[0].Kind != ChangePut {
		t.Fatalf("PutUser events = %+v", evs)
	}
	_ = st.PutUser(User{ID: "bob", Name: "Bob"})
	take()

	if err := st.PutPaper(Paper{ID: "p1", Title: "T", Authors: []string{"ann", "bob"}}); err != nil {
		t.Fatal(err)
	}
	evs = take()
	if len(evs) != 1 || evs[0].EntityType != EntityPaper || len(evs[0].Refs) != 2 || evs[0].Refs[0] != "ann" {
		t.Fatalf("PutPaper events = %+v", evs)
	}

	// A connect is one coalesced batch: the edge plus its activity event.
	if err := st.Connect("ann", "bob"); err != nil {
		t.Fatal(err)
	}
	evs = take()
	if len(evs) != 2 || evs[0].EntityType != EntityConnection || evs[1].EntityType != EntityActivity {
		t.Fatalf("Connect events = %+v", evs)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("sequence not monotone within batch: %d then %d", evs[0].Seq, evs[1].Seq)
	}
	if got := st.ChangeSeq(); got != evs[1].Seq {
		t.Fatalf("ChangeSeq = %d, want %d", got, evs[1].Seq)
	}

	// The activity event's ID resolves back to the stream event.
	seq, err := strconv.ParseUint(evs[1].ID, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	sev, err := st.EventBySeq(seq)
	if err != nil || sev.Verb != "connect" || sev.Actor != "ann" {
		t.Fatalf("EventBySeq(%d) = %+v, %v", seq, sev, err)
	}
}

// TestBatchedCoalescesTypedEvents: a Batched pass delivers exactly one
// batch carrying every write's events, only after the whole batch is
// persisted — the atomicity contract the delta pipeline relies on.
func TestBatchedCoalescesTypedEvents(t *testing.T) {
	st, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var mu sync.Mutex
	var deliveries [][]ChangeEvent
	st.OnChange(func(evs []ChangeEvent) {
		// All of the batch's writes must already be visible when the
		// events are delivered.
		for _, ev := range evs {
			if ev.EntityType == EntityUser && !st.HasUser(ev.ID) {
				t.Errorf("event for %s delivered before the write is visible", ev.ID)
			}
		}
		mu.Lock()
		deliveries = append(deliveries, evs)
		mu.Unlock()
	})

	const n = 5
	err = st.Batched(func() error {
		for i := 0; i < n; i++ {
			if err := st.PutUser(User{ID: fmt.Sprintf("u%d", i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deliveries) != 1 || len(deliveries[0]) != n {
		t.Fatalf("deliveries = %d batches (first has %d events), want 1 batch of %d",
			len(deliveries), len(deliveries[0]), n)
	}
}

// TestMutationReturnsAfterItsEventsAreDelivered: concurrent mutations
// share the event buffer, so one mutation's events may be flushed and
// delivered by another's scope. Whichever goroutine delivers them, they
// must have reached the subscribers by the time the mutation that
// emitted them returns — the platform's read-your-writes rests on it.
func TestMutationReturnsAfterItsEventsAreDelivered(t *testing.T) {
	st, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var seen sync.Map
	st.OnChange(func(evs []ChangeEvent) {
		time.Sleep(50 * time.Microsecond) // a subscriber that takes a while, as a fold does
		for _, ev := range evs {
			seen.Store(ev.ID, true)
		}
	})
	const writers, each = 8, 500
	var missed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("u%d-%d", w, i)
				if err := st.PutUser(User{ID: id, Name: "U"}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := seen.Load(id); !ok {
					missed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := missed.Load(); n > 0 {
		t.Fatalf("%d of %d mutations returned before their events reached the subscriber", n, writers*each)
	}
}

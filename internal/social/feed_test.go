package social

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomWorld fills a store with users, a random follow graph and a
// random activity stream (tagged and untagged), and returns the user IDs.
func randomWorld(tb testing.TB, s *Store, rng *rand.Rand, users, events int) []string {
	tb.Helper()
	ids := make([]string, users)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%02d", i)
		if err := s.PutUser(User{ID: ids[i]}); err != nil {
			tb.Fatal(err)
		}
	}
	pick := func() string { return ids[rng.Intn(users)] }
	for i := 0; i < events; i++ {
		var err error
		switch a, b := pick(), pick(); {
		case rng.Intn(8) == 0 && a != b:
			err = s.Follow(a, b) // logs a "follow" event of its own
		case rng.Intn(4) == 0:
			_, err = s.LogEvent(a, "checkin", "s"+b, []string{"#tag" + b})
		default:
			_, err = s.LogEvent(a, "browse", "p"+b, nil)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return ids
}

// eventLog is the oracle all three parity tests filter: every event in
// the store, decoded from a plain scan of the event table, oldest first.
func eventLog(t *testing.T, s *Store) []Event {
	t.Helper()
	var evs []Event
	s.kv.Scan(pEvent, func(_ string, raw []byte) bool {
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
		return true
	})
	return evs
}

func byActors(log []Event, actors []string) []Event {
	var evs []Event
	for _, ev := range log {
		if slices.Contains(actors, ev.Actor) {
			evs = append(evs, ev)
		}
	}
	return evs
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// Feed(u, 0) is decode-and-filter over the whole log, and a bounded
// Feed(u, n) is its last n events.
func TestFeedBoundedParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newStore(t)
		ids := randomWorld(t, s, rng, 4+rng.Intn(12), 300+rng.Intn(500))
		log := eventLog(t, s)
		for _, u := range ids {
			full := s.Feed(u, 0)
			sameEvents(t, fmt.Sprintf("seed %d Feed(%s, 0)", seed, u), full, byActors(log, s.Following(u)))
			for _, n := range []int{1, 2, 1 + rng.Intn(40), len(full), len(full) + 3} {
				want := full
				if n < len(full) {
					want = full[len(full)-n:]
				}
				sameEvents(t, fmt.Sprintf("seed %d Feed(%s, %d)", seed, u, n), s.Feed(u, n), want)
			}
		}
	}
}

// Pages of EventsByActorsBefore, each starting below the last sequence
// of the page before, concatenate to the actors' whole newest-first
// stream: nothing skipped, nothing repeated, from any starting bound.
func TestEventsByActorsBeforePaging(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newStore(t)
		ids := randomWorld(t, s, rng, 4+rng.Intn(12), 300+rng.Intn(500))
		log := eventLog(t, s)
		for trial := 0; trial < 20; trial++ {
			actors := append([]string{"nobody"}, ids[:rng.Intn(len(ids)+1)]...)
			rng.Shuffle(len(actors), func(i, j int) { actors[i], actors[j] = actors[j], actors[i] })
			var before uint64
			if trial%2 == 1 {
				before = uint64(rng.Intn(len(log) + 2))
			}
			var want []Event
			for _, ev := range byActors(log, actors) {
				if before == 0 || ev.Seq < before {
					want = append(want, ev)
				}
			}
			slices.Reverse(want)

			limit := 1 + rng.Intn(30)
			var got []Event
			for bound := before; ; {
				page := s.EventsByActorsBefore(actors, bound, limit)
				if len(page) > limit {
					t.Fatalf("seed %d: page of %d events, limit %d", seed, len(page), limit)
				}
				got = append(got, page...)
				if len(page) < limit {
					break
				}
				bound = page[len(page)-1].Seq
			}
			sameEvents(t, fmt.Sprintf("seed %d actors %v before %d limit %d", seed, actors, before, limit), got, want)
			sameEvents(t, "unlimited", s.EventsByActorsBefore(actors, before, 0), want)
		}
	}
}

// EventsSince seeks; the oracle decodes everything and filters.
func TestEventsSinceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newStore(t)
	randomWorld(t, s, rng, 6, 400)
	log := eventLog(t, s)
	afters := []uint64{0, 1, uint64(len(log)) - 1, uint64(len(log)), uint64(len(log)) + 5, 1 << 63, ^uint64(0)}
	for i := 0; i < 30; i++ {
		afters = append(afters, uint64(rng.Intn(len(log))))
	}
	for _, after := range afters {
		limit := rng.Intn(3) * rng.Intn(50) // 0 = no limit, a third of the time at least
		var want []Event
		for _, ev := range log {
			if ev.Seq > after && (limit == 0 || len(want) < limit) {
				want = append(want, ev)
			}
		}
		sameEvents(t, fmt.Sprintf("EventsSince(%d, %d)", after, limit), s.EventsSince(after, limit), want)
	}
}

var feedSink []Event

// BenchmarkFeed reads a 20-event feed page for a user following 8 of 32
// actors, over event logs of growing length.
func BenchmarkFeed(b *testing.B) {
	for _, events := range []int{1e3, 1e4} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			s, err := Open("", fixedClock())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			actors := make([]string, 32)
			for i := range actors {
				actors[i] = fmt.Sprintf("a%02d", i)
				if err := s.PutUser(User{ID: actors[i]}); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.PutUser(User{ID: "reader"}); err != nil {
				b.Fatal(err)
			}
			for _, a := range actors[:8] {
				if err := s.Follow("reader", a); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < events; i++ {
				if _, err := s.LogEvent(actors[i%len(actors)], "browse", fmt.Sprintf("p%d", i), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feedSink = s.Feed("reader", 20)
			}
		})
	}
}

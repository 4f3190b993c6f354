package core

import (
	"errors"
	"testing"

	"hive/internal/social"
	"hive/internal/workload"
)

func TestSearchHistoryLiteralAndTextMatch(t *testing.T) {
	_, eng := zachWorld(t)
	// Zach checked into s-social and asked q-zach... he asked nothing in
	// this world; he answered ans-zach. His events: checkin, answer,
	// connect (none), workpad-free. Use verb match first.
	all, err := eng.SearchHistory("zach", "", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("empty history")
	}
	// Verb literal match.
	checkins, err := eng.SearchHistory("zach", "checkin", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkins) == 0 {
		t.Fatal("no checkin events found")
	}
	for _, h := range checkins {
		if h.Event.Verb != "checkin" && h.Event.Object != "checkin" {
			// Text matches may also surface; ensure top result is the
			// literal one.
			break
		}
	}
	if checkins[0].Event.Verb != "checkin" {
		t.Fatalf("top result = %+v", checkins[0])
	}
	// Limit honored.
	limited, _ := eng.SearchHistory("zach", "", false, 1)
	if len(limited) != 1 {
		t.Fatalf("limit ignored: %d", len(limited))
	}
	// Unknown user.
	if _, err := eng.SearchHistory("ghost", "", false, 0); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchHistoryTextualRelevance(t *testing.T) {
	_, eng := zachWorld(t)
	// "graph" should match the s-graphs session check-in of ann.
	hits, err := eng.SearchHistory("ann", "graph processing", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.Event.Object == "s-graphs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("session checkin not matched: %+v", hits)
	}
}

func TestExplainResourceAuthorship(t *testing.T) {
	_, eng := zachWorld(t)
	evs, err := eng.ExplainResource("zach", "p-zach")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EvidenceKind]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	if !kinds[EvAuthored] {
		t.Fatalf("authored evidence missing: %+v", evs)
	}
}

func TestExplainResourceCitationAndContext(t *testing.T) {
	_, eng := zachWorld(t)
	// Zach's paper cites p-ann10 directly.
	evs, err := eng.ExplainResource("zach", "p-ann10")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EvidenceKind]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
		if ev.Strength <= 0 || ev.Strength > 1 {
			t.Fatalf("strength out of range: %+v", ev)
		}
	}
	if !kinds[EvCited] {
		t.Fatalf("citation evidence missing: %+v", evs)
	}
	// p-carl is on Zach's workpad context (graph-themed): topical match.
	evs2, err := eng.ExplainResource("zach", "p-carl")
	if err != nil {
		t.Fatal(err)
	}
	foundTopical := false
	for _, ev := range evs2 {
		if ev.Kind == EvTopical {
			foundTopical = true
		}
	}
	if !foundTopical {
		t.Fatalf("topical evidence missing: %+v", evs2)
	}
	if _, err := eng.ExplainResource("ghost", "p-zach"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestExplainResourceInteractionHistory(t *testing.T) {
	st, eng := zachWorld(t)
	_, _ = st.LogEvent("zach", "browse", "p-ann10", nil)
	// Rebuild not needed: events are read live from the store.
	evs, err := eng.ExplainResource("zach", "p-ann10")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == EvBrowsed {
			found = true
		}
	}
	if !found {
		t.Fatalf("interaction evidence missing: %+v", evs)
	}
}

func TestKnowledgePaths(t *testing.T) {
	_, eng := zachWorld(t)
	// user:zach --authored--> paper:p-zach --cites--> paper:p-ann10
	// <--authored-- user:ann should connect zach to ann in the KB.
	paths := eng.KnowledgePaths("user:zach", "user:ann", 3)
	if len(paths) == 0 {
		t.Fatal("no knowledge paths")
	}
	nodes := paths[0].Nodes()
	if nodes[0] != "user:zach" || nodes[len(nodes)-1] != "user:ann" {
		t.Fatalf("path endpoints = %v", nodes)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Score > paths[i-1].Score {
			t.Fatalf("paths not sorted: %v", paths)
		}
	}
}

func TestTrackCommunitiesStable(t *testing.T) {
	// Two engines over the same store must track ~perfectly.
	st, eng := zachWorld(t)
	eng2, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	matches := eng2.TrackCommunities(eng)
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	for _, m := range matches {
		if m.NextIndex < 0 || m.Jaccard < 0.99 {
			t.Fatalf("stable community not tracked: %+v", m)
		}
	}
}

func TestTrackCommunitiesAcrossEditions(t *testing.T) {
	// Year 2: same researchers plus newcomers; communities must still
	// match their year-1 counterparts.
	st, err := social.Open("", testClock())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := workload.Generate(workload.Config{Seed: 5, Users: 24})
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	year1, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	// Newcomers join and connect into topic 0.
	for i := 0; i < 4; i++ {
		id := "new" + string(rune('a'+i))
		if err := st.PutUser(social.User{ID: id, Name: id}); err != nil {
			t.Fatal(err)
		}
		if err := st.Connect(id, ds.Users[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	year2, err := (&Builder{Store: st}).Build()
	if err != nil {
		t.Fatal(err)
	}
	matches := year2.TrackCommunities(year1)
	matched := 0
	for _, m := range matches {
		if m.NextIndex >= 0 && m.Jaccard > 0.3 {
			matched++
		}
	}
	if matched == 0 {
		t.Fatalf("no communities survived the edition change: %+v", matches)
	}
}

package social

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// fixedClock returns a deterministic, strictly increasing clock.
func fixedClock() Clock {
	t := time.Unix(1363000000, 0) // around EDBT'13
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open("", fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedConference populates a minimal EDBT'13-like world.
func seedConference(t *testing.T, s *Store) {
	t.Helper()
	users := []User{
		{ID: "zach", Name: "Zach", Affiliation: "ASU", Interests: []string{"social media", "graphs"}},
		{ID: "ann", Name: "Ann", Affiliation: "UniTo"},
		{ID: "aaron", Name: "Aaron", Affiliation: "MPI"},
		{ID: "advisor", Name: "The Advisor", Affiliation: "ASU"},
	}
	for _, u := range users {
		if err := s.PutUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutConference(Conference{ID: "edbt13", Name: "EDBT 2013", Series: "edbt", Year: 2013, Venue: "Genoa"}); err != nil {
		t.Fatal(err)
	}
	sessions := []Session{
		{ID: "s-graphs", ConferenceID: "edbt13", Title: "Large Scale Graph Processing", Hashtag: "#edbt13graphs", Chair: "ann"},
		{ID: "s-social", ConferenceID: "edbt13", Title: "Social Media Analysis", Hashtag: "#edbt13social", Chair: "aaron"},
	}
	for _, sess := range sessions {
		if err := s.PutSession(sess); err != nil {
			t.Fatal(err)
		}
	}
	papers := []Paper{
		{ID: "p-zach", Title: "Diffusion in Social Graphs", Authors: []string{"zach", "advisor"},
			ConferenceID: "edbt13", SessionID: "s-social", Citations: []string{"p-ann"}},
		{ID: "p-ann", Title: "Community Detection at Scale", Authors: []string{"ann"},
			ConferenceID: "edbt13", SessionID: "s-graphs"},
	}
	for _, p := range papers {
		if err := s.PutPaper(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUserCRUD(t *testing.T) {
	s := newStore(t)
	if err := s.PutUser(User{ID: "u1", Name: "User One"}); err != nil {
		t.Fatal(err)
	}
	u, err := s.User("u1")
	if err != nil || u.Name != "User One" {
		t.Fatalf("User = %+v, %v", u, err)
	}
	if !s.HasUser("u1") || s.HasUser("u2") {
		t.Fatal("HasUser wrong")
	}
	if _, err := s.User("u2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := s.PutUser(User{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty ID err = %v", err)
	}
	if got := s.Users(); len(got) != 1 || got[0] != "u1" {
		t.Fatalf("Users = %v", got)
	}
}

func TestSessionRequiresConference(t *testing.T) {
	s := newStore(t)
	err := s.PutSession(Session{ID: "s1", ConferenceID: "missing"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestConferenceSessionsIndex(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	sessions := s.SessionsOf("edbt13")
	if len(sessions) != 2 {
		t.Fatalf("SessionsOf = %v", sessions)
	}
	sess, err := s.Session("s-graphs")
	if err != nil || sess.Chair != "ann" {
		t.Fatalf("Session = %+v, %v", sess, err)
	}
}

func TestPaperValidationAndIndexes(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.PutPaper(Paper{ID: "bad", Authors: []string{"ghost"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost author err = %v", err)
	}
	if err := s.PutPaper(Paper{ID: "bad2"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no-author err = %v", err)
	}
	if got := s.PapersOfAuthor("zach"); len(got) != 1 || got[0] != "p-zach" {
		t.Fatalf("PapersOfAuthor = %v", got)
	}
	if got := s.PapersOfSession("s-graphs"); len(got) != 1 || got[0] != "p-ann" {
		t.Fatalf("PapersOfSession = %v", got)
	}
	if got := s.PapersOfConference("edbt13"); len(got) != 2 {
		t.Fatalf("PapersOfConference = %v", got)
	}
}

func TestPresentationUploadFlow(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	pr := Presentation{ID: "pres-zach", PaperID: "p-zach", Owner: "zach", Text: "diffusion graphs slides"}
	if err := s.PutPresentation(pr); err != nil {
		t.Fatal(err)
	}
	got, err := s.Presentation("pres-zach")
	if err != nil || got.Updated == 0 {
		t.Fatalf("Presentation = %+v, %v", got, err)
	}
	if l := s.PresentationsOfPaper("p-zach"); len(l) != 1 {
		t.Fatalf("PresentationsOfPaper = %v", l)
	}
	if l := s.PresentationsOfUser("zach"); len(l) != 1 {
		t.Fatalf("PresentationsOfUser = %v", l)
	}
	if err := s.PutPresentation(Presentation{ID: "x", PaperID: "nope", Owner: "zach"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing paper err = %v", err)
	}
}

func TestConnectLifecycle(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.Connect("zach", "aaron"); err != nil {
		t.Fatal(err)
	}
	if !s.Connected("zach", "aaron") || !s.Connected("aaron", "zach") {
		t.Fatal("connection not symmetric")
	}
	if got := s.ConnectionsOf("zach"); len(got) != 1 || got[0] != "aaron" {
		t.Fatalf("ConnectionsOf = %v", got)
	}
	if err := s.Connect("zach", "zach"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("self-connect err = %v", err)
	}
	if err := s.Connect("zach", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost connect err = %v", err)
	}
}

func TestFollowLifecycle(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.Follow("zach", "ann"); err != nil {
		t.Fatal(err)
	}
	if !s.FollowsUser("zach", "ann") || s.FollowsUser("ann", "zach") {
		t.Fatal("follow should be directed")
	}
	if got := s.Following("zach"); len(got) != 1 || got[0] != "ann" {
		t.Fatalf("Following = %v", got)
	}
	if got := s.Followers("ann"); len(got) != 1 || got[0] != "zach" {
		t.Fatalf("Followers = %v", got)
	}
	if err := s.Unfollow("zach", "ann"); err != nil {
		t.Fatal(err)
	}
	if s.FollowsUser("zach", "ann") {
		t.Fatal("unfollow failed")
	}
	if err := s.Follow("zach", "zach"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("self-follow err = %v", err)
	}
}

func TestCheckInFlow(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.CheckIn("s-graphs", "zach"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIn("s-graphs", "ann"); err != nil {
		t.Fatal(err)
	}
	att := s.Attendees("s-graphs")
	if len(att) != 2 {
		t.Fatalf("Attendees = %v", att)
	}
	if got := s.SessionsAttendedBy("zach"); len(got) != 1 || got[0] != "s-graphs" {
		t.Fatalf("SessionsAttendedBy = %v", got)
	}
	if err := s.CheckIn("missing", "zach"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing session err = %v", err)
	}
	// Check-in with hashtag must land in the tag fan-out.
	evs := s.EventsByTag("#edbt13graphs")
	if len(evs) != 2 {
		t.Fatalf("EventsByTag = %v", evs)
	}
}

func TestQuestionAnswerFlow(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	q := Question{ID: "q1", Author: "aaron", Target: "p-zach", Text: "Is eq. 3 missing a factor?"}
	if err := s.AskQuestion(q); err != nil {
		t.Fatal(err)
	}
	got, err := s.Question("q1")
	if err != nil || got.At == 0 {
		t.Fatalf("Question = %+v, %v", got, err)
	}
	if l := s.QuestionsBy("aaron"); len(l) != 1 {
		t.Fatalf("QuestionsBy = %v", l)
	}
	a := Answer{ID: "a1", QuestionID: "q1", Author: "zach", Text: "Yes — fixed, thanks!"}
	if err := s.PostAnswer(a); err != nil {
		t.Fatal(err)
	}
	if l := s.AnswersTo("q1"); len(l) != 1 {
		t.Fatalf("AnswersTo = %v", l)
	}
	if err := s.PostAnswer(Answer{ID: "a2", QuestionID: "missing", Author: "zach"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing question err = %v", err)
	}
	// Question about a paper in a session with a hashtag broadcasts there.
	if evs := s.EventsByTag("#edbt13social"); len(evs) != 1 || evs[0].Verb != "question" {
		t.Fatalf("hashtag broadcast = %v", evs)
	}
}

func TestCommentFlow(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	c := Comment{ID: "c1", Author: "ann", Target: "s-graphs", Text: "Great session"}
	if err := s.PostComment(c); err != nil {
		t.Fatal(err)
	}
	if l := s.CommentsOn("s-graphs"); len(l) != 1 {
		t.Fatalf("CommentsOn = %v", l)
	}
	got, err := s.Comment("c1")
	if err != nil || got.Author != "ann" {
		t.Fatalf("Comment = %+v, %v", got, err)
	}
	if err := s.PostComment(Comment{ID: "c2"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid comment err = %v", err)
	}
}

func TestWorkpadLifecycle(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	w := Workpad{ID: "w1", Owner: "zach", Name: "session"}
	if err := s.PutWorkpad(w); err != nil {
		t.Fatal(err)
	}
	item := WorkpadItem{Kind: ItemUser, Ref: "ann"}
	if err := s.AddToWorkpad("w1", item); err != nil {
		t.Fatal(err)
	}
	// Idempotent add.
	if err := s.AddToWorkpad("w1", item); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Workpad("w1")
	if len(got.Items) != 1 {
		t.Fatalf("Items = %v", got.Items)
	}
	if err := s.SetActiveWorkpad("zach", "w1"); err != nil {
		t.Fatal(err)
	}
	act, err := s.ActiveWorkpad("zach")
	if err != nil || act.ID != "w1" {
		t.Fatalf("ActiveWorkpad = %+v, %v", act, err)
	}
	// Ownership enforced.
	if err := s.SetActiveWorkpad("ann", "w1"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("foreign activate err = %v", err)
	}
	if _, err := s.ActiveWorkpad("aaron"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("no active err = %v", err)
	}
	if got := s.WorkpadsOf("zach"); len(got) != 1 {
		t.Fatalf("WorkpadsOf = %v", got)
	}
}

// TestAskQuestionCoalesced: asking is one logical mutation (the
// question, then its activity event), so subscribers must see a single
// coalesced batch carrying both — never the question without the event
// that announces it.
func TestAskQuestionCoalesced(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)

	var batches [][]ChangeEvent
	s.OnChange(func(evs []ChangeEvent) {
		batches = append(batches, append([]ChangeEvent(nil), evs...))
	})
	if err := s.AskQuestion(Question{ID: "q1", Author: "aaron", Target: "p-zach", Text: "Why?"}); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("asking delivered %d change batches, want 1 coalesced batch", len(batches))
	}
	var sawQuestion, sawActivity bool
	for _, ev := range batches[0] {
		switch ev.EntityType {
		case EntityQuestion:
			sawQuestion = ev.ID == "q1"
		case EntityActivity:
			sawActivity = true
		}
	}
	if !sawQuestion || !sawActivity {
		t.Fatalf("coalesced batch %+v is missing the question or its activity event", batches[0])
	}
}

func TestActivityStreamOrderingAndFeed(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.Follow("advisor", "zach"); err != nil {
		t.Fatal(err)
	}
	_ = s.CheckIn("s-graphs", "zach")
	_ = s.AskQuestion(Question{ID: "q1", Author: "zach", Target: "p-ann", Text: "?"})
	_ = s.CheckIn("s-social", "ann")

	evs := s.EventsSince(0, 0)
	if len(evs) < 4 {
		t.Fatalf("EventsSince = %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	// The advisor follows Zach: the feed must contain Zach's checkin and
	// question but not Ann's checkin.
	feed := s.Feed("advisor", 0)
	if len(feed) != 2 {
		t.Fatalf("Feed = %+v", feed)
	}
	for _, ev := range feed {
		if ev.Actor != "zach" {
			t.Fatalf("feed leaked actor %q", ev.Actor)
		}
	}
}

func TestEventsSinceCursorAndLimit(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	var mid uint64
	for i := 0; i < 5; i++ {
		seq, err := s.LogEvent("zach", "browse", fmt.Sprintf("p%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			mid = seq
		}
	}
	evs := s.EventsSince(mid, 0)
	if len(evs) != 2 {
		t.Fatalf("EventsSince(mid) = %d events", len(evs))
	}
	evs = s.EventsSince(0, 3)
	if len(evs) != 3 {
		t.Fatalf("limit not honored: %d", len(evs))
	}
}

func TestEventsByActor(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	_, _ = s.LogEvent("zach", "browse", "p-ann", nil)
	_, _ = s.LogEvent("ann", "browse", "p-zach", nil)
	evs := s.EventsByActor("zach")
	if len(evs) != 1 || evs[0].Actor != "zach" {
		t.Fatalf("EventsByActor = %+v", evs)
	}
}

func TestSeqSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	_ = s.PutUser(User{ID: "u", Name: "U"})
	seq1, _ := s.LogEvent("u", "x", "", nil)
	_ = s.Close()

	s2, err := Open(dir, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seq2, _ := s2.LogEvent("u", "y", "", nil)
	if seq2 <= seq1 {
		t.Fatalf("sequence regressed after reopen: %d then %d", seq1, seq2)
	}
	// Data also survives.
	if !s2.HasUser("u") {
		t.Fatal("user lost")
	}
	if evs := s2.EventsSince(0, 0); len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestDurableFullScenario(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	seedConference(t, s)
	_ = s.Connect("zach", "ann")
	_ = s.CheckIn("s-graphs", "zach")
	_ = s.PutWorkpad(Workpad{ID: "w1", Owner: "zach", Name: "ctx",
		Items: []WorkpadItem{{Kind: ItemSession, Ref: "s-graphs"}}})
	_ = s.SetActiveWorkpad("zach", "w1")
	_ = s.Close()

	s2, err := Open(dir, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Connected("zach", "ann") {
		t.Fatal("connection lost")
	}
	if got := s2.Attendees("s-graphs"); len(got) != 1 {
		t.Fatalf("attendees lost: %v", got)
	}
	act, err := s2.ActiveWorkpad("zach")
	if err != nil || len(act.Items) != 1 {
		t.Fatalf("active workpad lost: %+v, %v", act, err)
	}
}

func TestEventsByTagCaseInsensitive(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	_, err := s.LogEvent("zach", "comment", "p-zach", []string{"#EDBT13Graphs"})
	if err != nil {
		t.Fatal(err)
	}
	if evs := s.EventsByTag("#edbt13graphs"); len(evs) != 1 {
		t.Fatalf("case-insensitive tag lookup failed: %v", evs)
	}
	if evs := s.EventsByTag("#EDBT13GRAPHS"); len(evs) != 1 {
		t.Fatalf("upper-case tag lookup failed: %v", evs)
	}
}

func TestFeedLimitKeepsNewest(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.Follow("advisor", "zach"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, _ = s.LogEvent("zach", "browse", fmt.Sprintf("p%d", i), nil)
	}
	feed := s.Feed("advisor", 2)
	if len(feed) != 2 {
		t.Fatalf("limit ignored: %d", len(feed))
	}
	// The newest two events must be kept, not the oldest.
	if feed[1].Object != "p4" || feed[0].Object != "p3" {
		t.Fatalf("feed kept wrong window: %+v", feed)
	}
}

func TestGettersReturnNotFound(t *testing.T) {
	s := newStore(t)
	if _, err := s.Conference("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Conference err = %v", err)
	}
	if _, err := s.Session("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Session err = %v", err)
	}
	if _, err := s.Paper("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Paper err = %v", err)
	}
	if _, err := s.Presentation("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Presentation err = %v", err)
	}
	if _, err := s.Answer("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Answer err = %v", err)
	}
	if _, err := s.Comment("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Comment err = %v", err)
	}
	if _, err := s.Workpad("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Workpad err = %v", err)
	}
}

func TestWorkpadOperationErrors(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.AddToWorkpad("missing", WorkpadItem{Kind: ItemUser, Ref: "x"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AddToWorkpad err = %v", err)
	}
	if err := s.PutWorkpad(Workpad{ID: "w", Owner: "ghost"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost owner err = %v", err)
	}
}

func TestAskQuestionValidation(t *testing.T) {
	s := newStore(t)
	seedConference(t, s)
	if err := s.AskQuestion(Question{ID: "q", Target: "x"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no-author err = %v", err)
	}
	if err := s.AskQuestion(Question{ID: "q", Author: "ghost", Target: "x"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost author err = %v", err)
	}
	if err := s.PostAnswer(Answer{QuestionID: "q"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no-id answer err = %v", err)
	}
}

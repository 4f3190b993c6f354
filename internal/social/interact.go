package social

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"hive/internal/kvstore"
)

// Interaction layer: connections, follows, check-ins, Q&A, comments,
// workpads and the activity stream. Every interaction both
// mutates state and appends an Event, which is what the knowledge layers
// (and the Twitter-equivalent hashtag fan-out) consume.

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// --- Connections -------------------------------------------------------------

// Connect establishes a mutual connection between two users (the
// "connection request ... acknowledgement" flow of §1.1, collapsed).
func (s *Store) Connect(a, b string) error {
	if a == b {
		return fmt.Errorf("%w: self-connection", ErrInvalid)
	}
	for _, u := range []string{a, b} {
		if !s.kv.Has(pUser + u) {
			return fmt.Errorf("%w: user %q", ErrNotFound, u)
		}
	}
	return s.scoped(func() error {
		batch := kvstore.NewBatch().
			Put(pConn+pairKey(a, b), nil).
			Put(pConnIdx+a+"/"+b, nil).
			Put(pConnIdx+b+"/"+a, nil)
		if err := s.kv.Apply(batch); err != nil {
			return err
		}
		s.emit(ChangePut, EntityConnection, pairKey(a, b), a, b)
		_, err := s.logEvent(a, "connect", b, nil)
		return err
	})
}

// Connected reports whether two users are connected.
func (s *Store) Connected(a, b string) bool {
	return s.kv.Has(pConn + pairKey(a, b))
}

// ConnectionsOf returns the connections of a user, sorted.
func (s *Store) ConnectionsOf(u string) []string {
	return s.stripPrefix(pConnIdx + u + "/")
}

// --- Follows -----------------------------------------------------------------

// Follow makes follower receive followee's activity.
func (s *Store) Follow(follower, followee string) error {
	if follower == followee {
		return fmt.Errorf("%w: self-follow", ErrInvalid)
	}
	for _, u := range []string{follower, followee} {
		if !s.kv.Has(pUser + u) {
			return fmt.Errorf("%w: user %q", ErrNotFound, u)
		}
	}
	return s.scoped(func() error {
		batch := kvstore.NewBatch().
			Put(pFollow+follower+"/"+followee, nil).
			Put(pFollower+followee+"/"+follower, nil)
		if err := s.kv.Apply(batch); err != nil {
			return err
		}
		s.emit(ChangePut, EntityFollow, follower+"/"+followee, follower, followee)
		_, err := s.logEvent(follower, "follow", followee, nil)
		return err
	})
}

// Unfollow removes a follow edge.
func (s *Store) Unfollow(follower, followee string) error {
	batch := kvstore.NewBatch().
		Delete(pFollow + follower + "/" + followee).
		Delete(pFollower + followee + "/" + follower)
	return s.scoped(func() error {
		defer s.emit(ChangeDelete, EntityFollow, follower+"/"+followee, follower, followee)
		return s.kv.Apply(batch)
	})
}

// FollowsUser reports whether follower follows followee.
func (s *Store) FollowsUser(follower, followee string) bool {
	return s.kv.Has(pFollow + follower + "/" + followee)
}

// Following returns the users someone follows.
func (s *Store) Following(u string) []string {
	return s.stripPrefix(pFollow + u + "/")
}

// Followers returns a user's followers.
func (s *Store) Followers(u string) []string {
	return s.stripPrefix(pFollower + u + "/")
}

// --- Check-ins ----------------------------------------------------------------

// CheckIn records that a user is attending a session and logs the event
// (tagged with the session hashtag, if any, for the Twitter-equivalent
// broadcast).
func (s *Store) CheckIn(sessionID, userID string) error {
	sess, err := s.Session(sessionID)
	if err != nil {
		return err
	}
	if !s.kv.Has(pUser + userID) {
		return fmt.Errorf("%w: user %q", ErrNotFound, userID)
	}
	return s.scoped(func() error {
		ci := CheckIn{SessionID: sessionID, UserID: userID, At: s.now().Unix()}
		defer s.emit(ChangePut, EntityCheckin, sessionID+"/"+userID, userID, sessionID)
		if err := s.putJSON(pCheckin+sessionID+"/"+userID, ci); err != nil {
			return err
		}
		if err := s.kv.Put(pCheckinU+userID+"/"+sessionID, nil); err != nil {
			return err
		}
		var tags []string
		if sess.Hashtag != "" {
			tags = []string{sess.Hashtag}
		}
		_, err := s.logEvent(userID, "checkin", sessionID, tags)
		return err
	})
}

// Attendees returns the user IDs checked into a session.
func (s *Store) Attendees(sessionID string) []string {
	return s.stripPrefix(pCheckin + sessionID + "/")
}

// SessionsAttendedBy returns the sessions a user has checked into.
func (s *Store) SessionsAttendedBy(userID string) []string {
	return s.stripPrefix(pCheckinU + userID + "/")
}

// --- Questions, answers, comments ---------------------------------------------

// AskQuestion posts a question about a target entity.
func (s *Store) AskQuestion(q Question) error {
	if q.ID == "" || q.Author == "" || q.Target == "" {
		return fmt.Errorf("%w: question needs id, author and target", ErrInvalid)
	}
	if !s.kv.Has(pUser + q.Author) {
		return fmt.Errorf("%w: user %q", ErrNotFound, q.Author)
	}
	if q.At == 0 {
		q.At = s.now().Unix()
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityQuestion, q.ID, q.Author, q.Target)
		if err := s.putJSON(pQuestion+q.ID, q); err != nil {
			return err
		}
		if err := s.kv.Put(pQAuthor+q.Author+"/"+q.ID, nil); err != nil {
			return err
		}
		_, err := s.logEvent(q.Author, "question", q.Target, s.tagsForTarget(q.Target))
		return err
	})
}

// Question fetches a question by ID.
func (s *Store) Question(id string) (Question, error) {
	var q Question
	err := s.getJSON(pQuestion+id, &q)
	return q, err
}

// QuestionsBy returns question IDs authored by a user.
func (s *Store) QuestionsBy(author string) []string {
	return s.stripPrefix(pQAuthor + author + "/")
}

// PostAnswer replies to an existing question.
func (s *Store) PostAnswer(a Answer) error {
	if a.ID == "" || a.Author == "" {
		return fmt.Errorf("%w: answer needs id and author", ErrInvalid)
	}
	if !s.kv.Has(pQuestion + a.QuestionID) {
		return fmt.Errorf("%w: question %q", ErrNotFound, a.QuestionID)
	}
	if !s.kv.Has(pUser + a.Author) {
		return fmt.Errorf("%w: user %q", ErrNotFound, a.Author)
	}
	if a.At == 0 {
		a.At = s.now().Unix()
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityAnswer, a.ID, a.Author, a.QuestionID)
		if err := s.putJSON(pAnswer+a.ID, a); err != nil {
			return err
		}
		if err := s.kv.Put(pAQuestion+a.QuestionID+"/"+a.ID, nil); err != nil {
			return err
		}
		_, err := s.logEvent(a.Author, "answer", a.QuestionID, nil)
		return err
	})
}

// Answer fetches an answer by ID.
func (s *Store) Answer(id string) (Answer, error) {
	var a Answer
	err := s.getJSON(pAnswer+id, &a)
	return a, err
}

// AnswersTo returns answer IDs for a question.
func (s *Store) AnswersTo(questionID string) []string {
	return s.stripPrefix(pAQuestion + questionID + "/")
}

// PostComment attaches a comment to any entity.
func (s *Store) PostComment(c Comment) error {
	if c.ID == "" || c.Author == "" || c.Target == "" {
		return fmt.Errorf("%w: comment needs id, author and target", ErrInvalid)
	}
	if !s.kv.Has(pUser + c.Author) {
		return fmt.Errorf("%w: user %q", ErrNotFound, c.Author)
	}
	if c.At == 0 {
		c.At = s.now().Unix()
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityComment, c.ID, c.Author, c.Target)
		if err := s.putJSON(pComment+c.ID, c); err != nil {
			return err
		}
		if err := s.kv.Put(pCTarget+c.Target+"/"+c.ID, nil); err != nil {
			return err
		}
		_, err := s.logEvent(c.Author, "comment", c.Target, s.tagsForTarget(c.Target))
		return err
	})
}

// Comment fetches a comment by ID.
func (s *Store) Comment(id string) (Comment, error) {
	var c Comment
	err := s.getJSON(pComment+id, &c)
	return c, err
}

// CommentsOn returns comment IDs attached to a target.
func (s *Store) CommentsOn(target string) []string {
	return s.stripPrefix(pCTarget + target + "/")
}

// tagsForTarget resolves the hashtag broadcast for events about a session
// (directly, or via a paper presented in a session).
func (s *Store) tagsForTarget(target string) []string {
	if sess, err := s.Session(target); err == nil && sess.Hashtag != "" {
		return []string{sess.Hashtag}
	}
	if p, err := s.Paper(target); err == nil && p.SessionID != "" {
		if sess, err := s.Session(p.SessionID); err == nil && sess.Hashtag != "" {
			return []string{sess.Hashtag}
		}
	}
	return nil
}

// --- Workpads -----------------------------------------------------------------

// PutWorkpad creates or updates a workpad.
func (s *Store) PutWorkpad(w Workpad) error {
	return s.scoped(func() error { return s.putWorkpad(w) })
}

func (s *Store) putWorkpad(w Workpad) error {
	if w.ID == "" || w.Owner == "" {
		return fmt.Errorf("%w: workpad needs id and owner", ErrInvalid)
	}
	if !s.kv.Has(pUser + w.Owner) {
		return fmt.Errorf("%w: user %q", ErrNotFound, w.Owner)
	}
	defer s.emit(ChangePut, EntityWorkpad, w.ID, w.Owner)
	if err := s.putJSON(pWorkpad+w.ID, w); err != nil {
		return err
	}
	return s.kv.Put(pWPOwner+w.Owner+"/"+w.ID, nil)
}

// Workpad fetches a workpad by ID.
func (s *Store) Workpad(id string) (Workpad, error) {
	var w Workpad
	err := s.getJSON(pWorkpad+id, &w)
	return w, err
}

// WorkpadsOf returns the workpad IDs of a user.
func (s *Store) WorkpadsOf(owner string) []string {
	return s.stripPrefix(pWPOwner + owner + "/")
}

// AddToWorkpad drags an item into a workpad (idempotent).
func (s *Store) AddToWorkpad(workpadID string, item WorkpadItem) error {
	w, err := s.Workpad(workpadID)
	if err != nil {
		return err
	}
	for _, it := range w.Items {
		if it == item {
			return nil
		}
	}
	w.Items = append(w.Items, item)
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityWorkpad, w.ID, w.Owner)
		return s.putJSON(pWorkpad+w.ID, w)
	})
}

// SetActiveWorkpad selects the workpad that defines the user's current
// context. The workpad must belong to the user.
func (s *Store) SetActiveWorkpad(owner, workpadID string) error {
	return s.scoped(func() error { return s.setActiveWorkpad(owner, workpadID) })
}

func (s *Store) setActiveWorkpad(owner, workpadID string) error {
	w, err := s.Workpad(workpadID)
	if err != nil {
		return err
	}
	if w.Owner != owner {
		return fmt.Errorf("%w: workpad %q not owned by %q", ErrInvalid, workpadID, owner)
	}
	defer s.emit(ChangePut, EntityActiveWorkpad, owner, workpadID)
	return s.kv.Put(pWPActive+owner, []byte(workpadID))
}

// ActiveWorkpad returns the user's active workpad, or ErrNotFound when no
// workpad is selected.
func (s *Store) ActiveWorkpad(owner string) (Workpad, error) {
	raw, err := s.kv.Get(pWPActive + owner)
	if err != nil {
		return Workpad{}, fmt.Errorf("%w: no active workpad for %q", ErrNotFound, owner)
	}
	return s.Workpad(string(raw))
}

// LogEvent appends an event to the activity stream and its actor/tag
// indexes, returning the assigned sequence number. The change log
// records it as an EntityActivity event whose ID is the activity
// sequence key, so incremental consumers can refetch the Event via
// EventBySeq and fold it into interaction tables exactly once.
func (s *Store) LogEvent(actor, verb, object string, tags []string) (seq uint64, err error) {
	err = s.scoped(func() error {
		seq, err = s.logEvent(actor, verb, object, tags)
		return err
	})
	return seq, err
}

func (s *Store) logEvent(actor, verb, object string, tags []string) (uint64, error) {
	seq, err := s.nextSeq()
	if err != nil {
		return 0, err
	}
	ev := Event{Seq: seq, At: s.now().Unix(), Actor: actor, Verb: verb, Object: object, Tags: tags}
	defer s.emit(ChangePut, EntityActivity, seqKey(seq), actor, object)
	if err := s.putJSON(pEvent+seqKey(seq), ev); err != nil {
		return 0, err
	}
	b := kvstore.NewBatch().Put(pEvActor+actor+"/"+seqKey(seq), nil)
	for _, t := range tags {
		b.Put(pEvTag+strings.ToLower(t)+"/"+seqKey(seq), nil)
	}
	if err := s.kv.Apply(b); err != nil {
		return 0, err
	}
	return seq, nil
}

// EventBySeq fetches one activity-stream event by its sequence number.
func (s *Store) EventBySeq(seq uint64) (Event, error) {
	var ev Event
	err := s.getJSON(pEvent+seqKey(seq), &ev)
	return ev, err
}

// LastEventSeq returns the highest activity-stream sequence assigned so
// far (persisted across reopen, unlike the change-event sequence).
func (s *Store) LastEventSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// EventsSince returns events with Seq > after, oldest first, up to limit
// (0 = no limit). It seeks to after+1 in the event log, so the cost is
// that of the events returned, not of the log.
func (s *Store) EventsSince(after uint64, limit int) []Event {
	if after == math.MaxUint64 {
		return nil
	}
	var evs []Event
	s.kv.AscendKeys(pEvent, pEvent+seqKey(after+1), func(k string) bool {
		if ev, ok := s.EventAt(k[len(pEvent):]); ok {
			evs = append(evs, ev)
		}
		return limit <= 0 || len(evs) < limit
	})
	return evs
}

// EventsByActor returns all events by one user, oldest first.
func (s *Store) EventsByActor(actor string) []Event {
	return s.eventsFromIndex(pEvActor + actor + "/")
}

// EventsByTag returns the hashtag fan-out: all events broadcast under a
// tag, oldest first.
func (s *Store) EventsByTag(tag string) []Event {
	return s.eventsFromIndex(pEvTag + strings.ToLower(tag) + "/")
}

// Feed returns the real-time update feed for a user: events by users they
// follow, oldest first ("provide real-time updates regarding these during
// the conference", §1.1). A positive limit keeps the newest limit events
// and costs limit index keys per followee plus limit decodes, whatever
// the length of the followees' histories.
func (s *Store) Feed(userID string, limit int) []Event {
	evs := s.EventsByActorsBefore(s.Following(userID), 0, limit)
	slices.Reverse(evs)
	return evs
}

// EventAt fetches and decodes the event stored under a sequence key (as
// EventKeysBefore lists them); ok is false when it is missing or does
// not decode.
func (s *Store) EventAt(seqStr string) (ev Event, ok bool) {
	return ev, s.getJSON(pEvent+seqStr, &ev) == nil
}

// eventsFromIndex decodes the events a secondary index (keys ending in
// the sequence key, empty values) lists under prefix, oldest first.
func (s *Store) eventsFromIndex(prefix string) []Event {
	var evs []Event
	s.kv.AscendKeys(prefix, "", func(k string) bool {
		if ev, ok := s.EventAt(k[len(prefix):]); ok {
			evs = append(evs, ev)
		}
		return true
	})
	return evs
}

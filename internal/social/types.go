// Package social implements Hive's social-platform substrate: the
// JomSocial-equivalent layer of users, connections, follows, conferences,
// sessions, papers, presentations, check-ins, questions/answers/comments,
// the activity stream with hashtag fan-out, and workpads (paper §2,
// Figure 4). Entities persist as JSON values in the embedded kvstore.
package social

import "time"

// User is a researcher profile.
type User struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Affiliation string   `json:"affiliation,omitempty"`
	Interests   []string `json:"interests,omitempty"`
	Groups      []string `json:"groups,omitempty"`
	Bio         string   `json:"bio,omitempty"`
}

// Conference is an event edition (e.g. "edbt13").
type Conference struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Series string `json:"series,omitempty"` // e.g. "edbt"
	Year   int    `json:"year,omitempty"`
	Venue  string `json:"venue,omitempty"`
}

// Session is a technical session within a conference.
type Session struct {
	ID           string `json:"id"`
	ConferenceID string `json:"conference_id"`
	Title        string `json:"title"`
	Track        string `json:"track,omitempty"`
	Chair        string `json:"chair,omitempty"` // user ID
	StartsAt     int64  `json:"starts_at,omitempty"`
	Hashtag      string `json:"hashtag,omitempty"`
}

// Paper is a published (or accepted) paper.
type Paper struct {
	ID           string   `json:"id"`
	Title        string   `json:"title"`
	Abstract     string   `json:"abstract,omitempty"`
	Authors      []string `json:"authors"` // user IDs, in order
	ConferenceID string   `json:"conference_id,omitempty"`
	SessionID    string   `json:"session_id,omitempty"`
	Citations    []string `json:"citations,omitempty"` // cited paper IDs
	Year         int      `json:"year,omitempty"`
}

// Presentation is user-supplied content attached to a paper (slides,
// poster text, supporting material).
type Presentation struct {
	ID      string `json:"id"`
	PaperID string `json:"paper_id"`
	Owner   string `json:"owner"` // user ID
	Title   string `json:"title,omitempty"`
	Text    string `json:"text"` // extracted slide text
	Updated int64  `json:"updated,omitempty"`
}

// CheckIn records a user attending a session.
type CheckIn struct {
	SessionID string `json:"session_id"`
	UserID    string `json:"user_id"`
	At        int64  `json:"at"`
}

// Question is a question posted against a target entity (presentation,
// paper or session).
type Question struct {
	ID     string `json:"id"`
	Author string `json:"author"`
	Target string `json:"target"` // entity ID the question refers to
	Text   string `json:"text"`
	At     int64  `json:"at"`
}

// Answer replies to a question.
type Answer struct {
	ID         string `json:"id"`
	QuestionID string `json:"question_id"`
	Author     string `json:"author"`
	Text       string `json:"text"`
	At         int64  `json:"at"`
}

// Comment is free-form feedback on any entity.
type Comment struct {
	ID     string `json:"id"`
	Author string `json:"author"`
	Target string `json:"target"`
	Text   string `json:"text"`
	At     int64  `json:"at"`
}

// ItemKind classifies a workpad item (paper §2: "the work pads can
// contain many different types of resources").
type ItemKind string

// Workpad item kinds.
const (
	ItemUser         ItemKind = "user"
	ItemPaper        ItemKind = "paper"
	ItemPresentation ItemKind = "presentation"
	ItemSession      ItemKind = "session"
	ItemQuestion     ItemKind = "question"
)

// WorkpadItem is one dragged-in resource.
type WorkpadItem struct {
	Kind ItemKind `json:"kind"`
	Ref  string   `json:"ref"` // entity ID
}

// Workpad is a named bag of resources that doubles as the user's active
// search/recommendation context (Figure 4).
type Workpad struct {
	ID    string        `json:"id"`
	Owner string        `json:"owner"`
	Name  string        `json:"name"`
	Items []WorkpadItem `json:"items,omitempty"`
}

// Event is one activity-stream entry. Verbs follow the scenario of §1.1:
// "checkin", "question", "answer", "comment", "upload", "connect",
// "follow", plus "browse".
type Event struct {
	Seq    uint64   `json:"seq"`
	At     int64    `json:"at"`
	Actor  string   `json:"actor"`
	Verb   string   `json:"verb"`
	Object string   `json:"object,omitempty"`
	Tags   []string `json:"tags,omitempty"`
}

// Clock abstracts time for deterministic tests and workload replay.
type Clock func() time.Time

// SystemClock is the default wall-clock.
func SystemClock() time.Time { return time.Now() }

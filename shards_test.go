package hive

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hive/api"
	"hive/internal/core"
	"hive/internal/social"
	"hive/internal/tensor"
	"hive/internal/topk"
)

// mutation is the write surface; the parity test drives a Sharded and
// the direct reference through it with an identical script.
type mutation interface {
	RegisterUser(User) error
	CreateConference(Conference) error
	CreateSession(Session) error
	PublishPaper(Paper) error
	UploadPresentation(Presentation) error
	Connect(a, b string) error
	Follow(follower, followee string) error
	CheckIn(sessionID, userID string) error
	Ask(Question) error
	AnswerQuestion(Answer) error
	PostComment(Comment) error
	CreateWorkpad(Workpad) error
	AddToWorkpad(string, WorkpadItem) error
	ActivateWorkpad(owner, workpadID string) error
	LogBrowse(userID, object string) error
}

// direct is the parity reference: one social store written and read
// directly, with no platform or router code in between — each service
// as a single store call, the multi-step ones spelled out.
type direct struct{ st *social.Store }

func (d direct) RegisterUser(u User) error             { return d.st.PutUser(u) }
func (d direct) CreateConference(c Conference) error   { return d.st.PutConference(c) }
func (d direct) CreateSession(s Session) error         { return d.st.PutSession(s) }
func (d direct) PublishPaper(pa Paper) error           { return d.st.PutPaper(pa) }
func (d direct) Connect(a, b string) error             { return d.st.Connect(a, b) }
func (d direct) Follow(a, b string) error              { return d.st.Follow(a, b) }
func (d direct) CheckIn(sessionID, user string) error  { return d.st.CheckIn(sessionID, user) }
func (d direct) Ask(q Question) error                  { return d.st.AskQuestion(q) }
func (d direct) AnswerQuestion(a Answer) error         { return d.st.PostAnswer(a) }
func (d direct) PostComment(c Comment) error           { return d.st.PostComment(c) }
func (d direct) CreateWorkpad(w Workpad) error         { return d.st.PutWorkpad(w) }
func (d direct) ActivateWorkpad(owner, w string) error { return d.st.SetActiveWorkpad(owner, w) }
func (d direct) AddToWorkpad(w string, item WorkpadItem) error {
	return d.st.AddToWorkpad(w, item)
}
func (d direct) UploadPresentation(pr Presentation) error {
	if err := d.st.PutPresentation(pr); err != nil {
		return err
	}
	_, err := d.st.LogEvent(pr.Owner, "upload", pr.ID, nil)
	return err
}
func (d direct) LogBrowse(user, object string) error {
	_, err := d.st.LogEvent(user, "browse", object, nil)
	return err
}

var parityVocab = []string{
	"stream", "join", "index", "shard", "quorum", "vector", "graph",
	"ranking", "snapshot", "delta", "journal", "epoch", "lease",
	"summarize", "context", "workpad", "conference", "session",
	"collaboration", "recommendation", "tensor", "activation",
	"overlap", "digest", "latency", "throughput", "partition",
}

func phrase(rng *rand.Rand, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += parityVocab[rng.Intn(len(parityVocab))]
	}
	return s
}

// parityScript builds a deterministic mutation sequence exercising
// every routed entity kind: broadcast reference data, owner-hashed
// content, probe-routed children, graph edges and activity.
func parityScript(seed int64) []func(m mutation) error {
	rng := rand.New(rand.NewSource(seed))
	var script []func(m mutation) error
	add := func(fn func(m mutation) error) { script = append(script, fn) }

	users := make([]string, 12)
	for i := range users {
		u := User{
			ID:        fmt.Sprintf("u%d", i),
			Name:      fmt.Sprintf("User %d", i),
			Interests: []string{phrase(rng, 2), phrase(rng, 1)},
		}
		users[i] = u.ID
		add(func(m mutation) error { return m.RegisterUser(u) })
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }

	confs := []string{"edbt", "vldb"}
	for _, c := range confs {
		conf := Conference{ID: c, Name: c, Year: 2013}
		add(func(m mutation) error { return m.CreateConference(conf) })
	}
	sessions := make([]string, 4)
	for i := range sessions {
		s := Session{
			ID:           fmt.Sprintf("s%d", i),
			ConferenceID: confs[i%len(confs)],
			Title:        phrase(rng, 3),
			Hashtag:      fmt.Sprintf("#s%d", i),
		}
		sessions[i] = s.ID
		add(func(m mutation) error { return m.CreateSession(s) })
	}

	papers := make([]string, 14)
	for i := range papers {
		pa := Paper{
			ID:           fmt.Sprintf("p%d", i),
			Title:        phrase(rng, 4),
			Abstract:     phrase(rng, 12),
			Authors:      []string{pick(users), pick(users)},
			ConferenceID: pick(confs),
			SessionID:    pick(sessions),
		}
		papers[i] = pa.ID
		add(func(m mutation) error { return m.PublishPaper(pa) })
	}
	for i := 0; i < 7; i++ {
		pr := Presentation{
			ID:      fmt.Sprintf("pr%d", i),
			PaperID: pick(papers),
			Owner:   pick(users),
			Title:   phrase(rng, 3),
			Text:    phrase(rng, 20),
		}
		add(func(m mutation) error { return m.UploadPresentation(pr) })
	}

	for i := 0; i < 10; i++ {
		a, b := pick(users), pick(users)
		if a == b {
			continue
		}
		add(func(m mutation) error { return m.Connect(a, b) })
	}
	for i := 0; i < 20; i++ {
		a, b := pick(users), pick(users)
		if a == b {
			continue
		}
		add(func(m mutation) error { return m.Follow(a, b) })
	}
	for i := 0; i < 12; i++ {
		s, u := pick(sessions), pick(users)
		add(func(m mutation) error { return m.CheckIn(s, u) })
	}

	questions := make([]string, 9)
	for i := range questions {
		q := Question{
			ID:     fmt.Sprintf("q%d", i),
			Author: pick(users),
			Target: pick(papers),
			Text:   phrase(rng, 8),
		}
		questions[i] = q.ID
		add(func(m mutation) error { return m.Ask(q) })
	}
	for i := 0; i < 8; i++ {
		a := Answer{
			ID:         fmt.Sprintf("a%d", i),
			QuestionID: pick(questions),
			Author:     pick(users),
			Text:       phrase(rng, 6),
		}
		add(func(m mutation) error { return m.AnswerQuestion(a) })
	}
	for i := 0; i < 6; i++ {
		c := Comment{
			ID:     fmt.Sprintf("c%d", i),
			Author: pick(users),
			Target: pick(papers),
			Text:   phrase(rng, 5),
		}
		add(func(m mutation) error { return m.PostComment(c) })
	}

	for i := 0; i < 4; i++ {
		owner := pick(users)
		w := Workpad{
			ID:    fmt.Sprintf("w%d", i),
			Owner: owner,
			Name:  phrase(rng, 2),
			Items: []WorkpadItem{{Kind: ItemPaper, Ref: pick(papers)}},
		}
		item := WorkpadItem{Kind: ItemUser, Ref: pick(users)}
		add(func(m mutation) error { return m.CreateWorkpad(w) })
		add(func(m mutation) error { return m.AddToWorkpad(w.ID, item) })
		add(func(m mutation) error { return m.ActivateWorkpad(owner, w.ID) })
	}
	for i := 0; i < 8; i++ {
		u, o := pick(users), "paper/"+pick(papers)
		add(func(m mutation) error { return m.LogBrowse(u, o) })
	}
	return script
}

func zeroSeqs(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

// TestShardedParity is the sharding correctness property: the same
// mutation script applied to one store read directly (direct, and the
// engine built over it) and to N shard leaders must yield bit-identical
// search results (scores, order and tie-breaks included), identical
// feeds (modulo per-shard sequence numbers) and identical set reads —
// the scatter-gather read path may not be observably different from one
// big index. A Platform is the one-shard router, so the reference is
// the store and engine themselves, not a Platform. At one shard the
// parity covers every knowledge service (serviceParity).
func TestShardedParity(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				ref, err := social.Open("", social.Clock(testClock()))
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				sh, err := OpenSharded(shards, Options{Clock: testClock()})
				if err != nil {
					t.Fatal(err)
				}
				defer sh.Close()

				script := parityScript(seed)
				for i, fn := range script {
					if err := fn(direct{ref}); err != nil {
						t.Fatalf("unsharded step %d: %v", i, err)
					}
					if err := fn(sh); err != nil {
						t.Fatalf("sharded step %d: %v", i, err)
					}
				}
				refEng, err := (&core.Builder{Store: ref}).Build()
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.Refresh(); err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewSource(seed * 977))
				for i := 0; i < 10; i++ {
					q := phrase(rng, 1+rng.Intn(3))
					want := refEng.Search(q, 10)
					got, err := sh.Search(context.Background(), q, 10)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("Search(%q) diverged:\nunsharded %+v\nsharded   %+v", q, want, got)
					}
				}

				for i := 0; i < 12; i++ {
					u := fmt.Sprintf("u%d", i)
					for _, limit := range []int{0, 5} {
						want := zeroSeqs(ref.Feed(u, limit))
						got := zeroSeqs(sh.Feed(u, limit))
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("Feed(%s,%d) diverged:\nunsharded %+v\nsharded   %+v", u, limit, want, got)
						}
					}
					wantDig, err := refEng.UpdateDigest(u, 6)
					if err != nil {
						t.Fatal(err)
					}
					gotDig, err := sh.UpdateDigest(u, 6)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantDig, gotDig) {
						t.Fatalf("UpdateDigest(%s) diverged:\nunsharded %+v\nsharded   %+v", u, wantDig, gotDig)
					}
				}

				for i := 0; i < 4; i++ {
					s := fmt.Sprintf("s%d", i)
					if want, got := ref.Attendees(s), sh.Attendees(s); !reflect.DeepEqual(want, got) {
						t.Fatalf("Attendees(%s): unsharded %v sharded %v", s, want, got)
					}
					tag := fmt.Sprintf("#s%d", i)
					want := zeroSeqs(ref.EventsByTag(tag))
					got := zeroSeqs(sh.EventsByTag(tag))
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("EventsByTag(%s) diverged:\nunsharded %+v\nsharded   %+v", tag, want, got)
					}
				}
				// Activity monitoring reads every shard's stream: with a
				// ticking clock no two events share a timestamp, so the
				// merge is the one-store stream, epoch for epoch.
				wantChanges, err := monitorDirect(ref, refEng, 10)
				if err != nil {
					t.Fatal(err)
				}
				gotChanges, err := sh.MonitorActivity(10)
				if err != nil || !reflect.DeepEqual(wantChanges, gotChanges) {
					t.Fatalf("MonitorActivity diverged (err %v):\nunsharded %+v\nsharded   %+v", err, wantChanges, gotChanges)
				}
				for a := 0; a < 12; a++ {
					for b := 0; b < 12; b++ {
						ua, ub := fmt.Sprintf("u%d", a), fmt.Sprintf("u%d", b)
						if want, got := ref.Connected(ua, ub), sh.Connected(ua, ub); want != got {
							t.Fatalf("Connected(%s,%s): unsharded %v sharded %v", ua, ub, want, got)
						}
					}
				}
				for i := 0; i < 12; i++ {
					u := fmt.Sprintf("u%d", i)
					want, wantErr := ref.ActiveWorkpad(u)
					got, gotErr := sh.ActiveWorkpad(u)
					if !reflect.DeepEqual(want, got) || (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("ActiveWorkpad(%s): unsharded %+v, %v sharded %+v, %v", u, want, wantErr, got, gotErr)
					}
				}
				if shards == 1 {
					serviceParity(t, sh.Shard(0), seed)
				}
			})
		}
	}
}

// sameUpToFloatNoise is reflect.DeepEqual over exported result types,
// with float64s equal when they agree to a part in 1e9: evidence
// strengths and rank scores are float sums in map order, so one
// snapshot asked twice differs in the last bits.
func sameUpToFloatNoise(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameUpToFloatNoise(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameUpToFloatNoise(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// serviceParity: a Platform — the hive.Open call shape, its methods
// promoted from the one-shard router — answers every knowledge service
// as its engine asked directly does. Both sides read the same snapshot:
// two builds of one dataset disagree by up to a part in a thousand
// wherever a context vector is involved (hiveload finding 3), which
// would hide a wrong answer behind the tolerance it takes. The evidence
// services are owner-shard approximations at more shards, so this half
// of the parity is a one-shard property.
func serviceParity(t *testing.T, p *Platform, seed int64) {
	t.Helper()
	ref := p.Snapshot()
	same := func(what string, want, got any, wantErr, gotErr error) {
		t.Helper()
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%s: engine error %v, Platform error %v", what, wantErr, gotErr)
		}
		if !sameUpToFloatNoise(reflect.ValueOf(want), reflect.ValueOf(got)) {
			t.Fatalf("%s diverged:\nengine   %+v\nPlatform %+v", what, want, got)
		}
	}
	rng := rand.New(rand.NewSource(seed * 131))
	for i := 0; i < 12; i++ {
		u, v := fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", (i+5)%12)
		doc := fmt.Sprintf("%sp%d", DocPaper, rng.Intn(14))
		paper := fmt.Sprintf("p%d", rng.Intn(14))
		q := phrase(rng, 2)

		wantPeers, err1 := ref.RecommendPeers(u, 5)
		gotPeers, err2 := p.RecommendPeers(u, 5)
		same("RecommendPeers("+u+")", wantPeers, gotPeers, err1, err2)
		for _, useCtx := range []bool{false, true} {
			wantRes, err1 := ref.RecommendResources(u, 5, useCtx)
			gotRes, err2 := p.RecommendResources(u, 5, useCtx)
			same(fmt.Sprintf("RecommendResources(%s,%v)", u, useCtx), wantRes, gotRes, err1, err2)
			wantHist, err1 := ref.SearchHistory(u, q, useCtx, 10)
			gotHist, err2 := p.SearchHistory(u, q, useCtx, 10)
			same(fmt.Sprintf("SearchHistory(%s,%q,%v)", u, q, useCtx), wantHist, gotHist, err1, err2)
		}
		wantSess, err1 := ref.SuggestSessions(u, "edbt", 3)
		gotSess, err2 := p.SuggestSessions(u, "edbt", 3)
		same("SuggestSessions("+u+")", wantSess, gotSess, err1, err2)
		wantEx, err1 := ref.Explain(u, v)
		gotEx, err2 := p.Explain(u, v)
		same("Explain("+u+","+v+")", wantEx, gotEx, err1, err2)
		wantPrev, err1 := ref.Preview(u, doc, 3)
		gotPrev, err2 := p.Preview(u, doc, 3)
		same("Preview("+u+","+doc+")", wantPrev, gotPrev, err1, err2)
		wantRel, err1 := ref.ExplainResource(u, paper)
		gotRel, err2 := p.ExplainResource(u, paper)
		same("ExplainResource("+u+","+paper+")", wantRel, gotRel, err1, err2)
		gotPaths, err2 := p.KnowledgePaths("user:"+u, "session:s"+fmt.Sprint(i%4), 3)
		same("KnowledgePaths("+u+")", ref.KnowledgePaths("user:"+u, "session:s"+fmt.Sprint(i%4), 3), gotPaths, nil, err2)
		// Context search re-ranks in a fixed order, so it compares
		// exactly: rank by rank, score bit by score bit.
		wantCtx := ref.SearchWithContext(u, q, 10)
		gotCtx, err2 := p.SearchWithContext(u, q, 10)
		if err2 != nil || !reflect.DeepEqual(wantCtx, gotCtx) {
			t.Fatalf("SearchWithContext(%s,%q) diverged (err %v):\nengine   %+v\nPlatform %+v", u, q, err2, wantCtx, gotCtx)
		}
	}
	gotComms, err2 := p.Communities()
	same("Communities", ref.Communities(), gotComms, nil, err2)
}

// monitorDirect is MonitorActivity's reference: SCENT over one store's
// own activity stream, targets classified by an engine built over it.
func monitorDirect(st *social.Store, eng *core.Engine, epochEvents int) ([]ChangeResult, error) {
	stream, sk, err := core.ActivityTensorStream(st.EventsSince(0, 0), st.Users(), eng.TargetKind, epochEvents)
	if err != nil {
		return nil, err
	}
	return tensor.MonitorSketched(sk, stream, &tensor.Detector{})
}

// TestShardManifestPinsCount: the shard count is fixed for the life of
// a data dir — reopening with a different count must fail, reopening
// with the same count must find the routed data. A dir written
// unsharded is a one-shard dir, and the check holds in both directions:
// neither shape may be opened as the other, which would serve an empty
// store beside the old data without a word.
func TestShardManifestPinsCount(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(2, Options{Dir: dir, Clock: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.RegisterUser(User{ID: "u", Name: "U"}); err != nil {
		t.Fatal(err)
	}
	if err := sh.PublishPaper(Paper{ID: "p", Title: "sharded journal", Authors: []string{"u"}}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSharded(3, Options{Dir: dir, Clock: testClock()}); err == nil {
		t.Fatal("reopening a 2-shard dir with 3 shards must fail")
	}

	sh2, err := OpenSharded(2, Options{Dir: dir, Clock: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if _, err := sh2.GetUser("u"); err != nil {
		t.Fatalf("user lost across sharded reopen: %v", err)
	}
	rs, err := sh2.Search(context.Background(), "sharded journal", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || rs[0].DocID != DocPaper+"p" {
		t.Fatalf("paper not found after sharded reopen: %+v", rs)
	}
	if _, err := OpenSharded(1, Options{Dir: dir, Clock: testClock()}); err == nil || !strings.Contains(err.Error(), "shard count is fixed") {
		t.Fatalf("opening a 2-shard dir with one shard: err = %v, want the fixed-count refusal", err)
	}

	// A dir written by a standalone Platform: no manifest, no shard-0/.
	flat := t.TempDir()
	p, err := Open(Options{Dir: flat, Clock: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterUser(User{ID: "u", Name: "U"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(4, Options{Dir: flat, Clock: testClock()}); err == nil || !strings.Contains(err.Error(), "shard count is fixed") {
		t.Fatalf("opening an unsharded dir with 4 shards: err = %v, want the fixed-count refusal", err)
	}
	one, err := OpenSharded(1, Options{Dir: flat, Clock: testClock()})
	if err != nil {
		t.Fatalf("opening an unsharded dir with one shard: %v", err)
	}
	defer one.Close()
	if _, err := one.GetUser("u"); err != nil {
		t.Fatalf("user lost opening the unsharded dir as one shard: %v", err)
	}
	for _, name := range []string{"shards.json", "shard-0"} {
		if _, err := os.Stat(filepath.Join(flat, name)); err == nil {
			t.Fatalf("one shard wrote %s into the unsharded layout", name)
		}
	}
}

// TestShardedFeedCursorStability: the feed cursor is a per-shard
// sequence-bound vector, so paginating while other shards keep writing
// must never skip or repeat an event that existed when pagination
// began.
func TestShardedFeedCursorStability(t *testing.T) {
	sh, err := OpenSharded(4, Options{Clock: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	actors := make([]string, 6)
	for i := range actors {
		actors[i] = fmt.Sprintf("actor%d", i)
		if err := sh.RegisterUser(User{ID: actors[i], Name: actors[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.RegisterUser(User{ID: "reader", Name: "Reader"}); err != nil {
		t.Fatal(err)
	}
	for _, a := range actors {
		if err := sh.Follow("reader", a); err != nil {
			t.Fatal(err)
		}
	}
	post := func(i int) {
		t.Helper()
		a := actors[i%len(actors)]
		if err := sh.LogBrowse(a, fmt.Sprintf("obj-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const initial = 40
	for i := 0; i < initial; i++ {
		post(i)
	}
	// Every event has a globally unique timestamp (one shared clock),
	// so At identifies an event across shards.
	initialSet := make(map[int64]bool)
	for _, ev := range mustFeed(t, sh, "reader") {
		initialSet[ev.At] = true
	}
	if len(initialSet) != initial {
		t.Fatalf("setup: %d distinct events, want %d", len(initialSet), initial)
	}

	seen := make(map[int64]bool)
	cursor := ""
	pages := 0
	extra := initial
	for {
		page, next, err := sh.FeedPage(context.Background(), "reader", cursor, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range page {
			if i > 0 && page[i-1].At < ev.At {
				t.Fatalf("page %d not newest-first: %+v", pages, page)
			}
			if seen[ev.At] {
				t.Fatalf("event at=%d repeated across pages", ev.At)
			}
			seen[ev.At] = true
		}
		pages++
		if next == "" {
			break
		}
		cursor = next
		// Concurrent writers on other shards between pages.
		if pages <= 3 {
			for i := 0; i < 5; i++ {
				post(extra)
				extra++
			}
		}
		if pages > 40 {
			t.Fatal("pagination did not terminate")
		}
	}
	for at := range initialSet {
		if !seen[at] {
			t.Fatalf("event at=%d existed before pagination but was skipped", at)
		}
	}
}

func mustFeed(t *testing.T, sh *Sharded, user string) []Event {
	t.Helper()
	return sh.Feed(user, 0)
}

// eagerFeedPage is the feed merge the lazy one replaced, kept as its
// oracle: every shard decodes up to limit+1 events below its bound, the
// newest-first lists k-way merge, and leftovers past the page mean
// another page. It decodes through decodeFeedEvent, as the lazy merge
// does, so both see the same lost records.
func eagerFeedPage(sh *Sharded, userID, cursor string, limit int) ([]Event, string) {
	bounds, err := api.DecodeShardCursor(cursor, len(sh.shards))
	if err != nil {
		panic(err)
	}
	followees := sh.home(userID).store.Following(userID)
	lists := make([][]shardEvent, len(sh.shards))
	total := 0
	for i, p := range sh.shards {
		for _, seq := range p.store.EventKeysBefore(followees, bounds[i], limit+1) {
			if len(lists[i]) == limit+1 {
				break
			}
			if ev, ok := decodeFeedEvent(p.store, seq); ok {
				lists[i] = append(lists[i], shardEvent{ev: ev, shard: i})
			}
		}
		total += len(lists[i])
	}
	page := topk.MergeTopK(lists, limit, func(a, b shardEvent) bool { return a.ev.At > b.ev.At })
	evs := make([]Event, len(page))
	for i, se := range page {
		evs[i] = se.ev
		bounds[se.shard] = se.ev.Seq
	}
	if total > len(page) {
		return evs, api.EncodeShardCursor(bounds)
	}
	return evs, ""
}

// TestShardedFeedLazyMatchesEager: the lazy feed merge returns the page,
// the order and the next cursor the eager merge returns, on 1, 2 and 4
// shards, limits 1–25, every page of a walked cursor, timestamps tied
// across shards and index keys whose event records are gone; and a page
// decodes at most limit + shards events.
func TestShardedFeedLazyMatchesEager(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			// The clock ticks once every three reads, so events on
			// different shards share timestamps.
			base, reads := time.Unix(1363000000, 0), 0
			var mu sync.Mutex
			clock := func() time.Time {
				mu.Lock()
				defer mu.Unlock()
				reads++
				return base.Add(time.Duration(reads/3) * time.Second)
			}
			sh, err := OpenSharded(n, Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			actors := make([]string, 8)
			for i := range actors {
				actors[i] = fmt.Sprintf("actor%d", i)
				if err := sh.RegisterUser(User{ID: actors[i], Name: actors[i]}); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.RegisterUser(User{ID: "reader", Name: "Reader"}); err != nil {
				t.Fatal(err)
			}
			for _, a := range actors {
				if err := sh.Follow("reader", a); err != nil {
					t.Fatal(err)
				}
			}
			// The oldest event is the last shard's, so a walk's last page
			// can end with only its lost record left behind.
			first := slices.IndexFunc(actors, func(a string) bool { return sh.ShardOf(a) == n-1 })
			if err := sh.LogBrowse(actors[first], "obj-first"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 70; i++ {
				if err := sh.LogBrowse(actors[rng.Intn(len(actors))], fmt.Sprintf("obj-%d", i)); err != nil {
					t.Fatal(err)
				}
			}

			// Lose the records of the last shard's fifth-newest event and
			// of its oldest, keeping their index keys.
			lost := sh.shards[n-1].store
			keys := lost.EventKeysBefore(actors, 0, 0)
			if len(keys) < 6 {
				t.Fatalf("last shard holds %d events, want at least 6", len(keys))
			}
			lostKeys := []string{keys[4], keys[len(keys)-1]}
			decodes, counting := 0, false
			defer func(orig func(*social.Store, string) (Event, bool)) { decodeFeedEvent = orig }(decodeFeedEvent)
			decodeFeedEvent = func(st *social.Store, seq string) (Event, bool) {
				if st == lost && slices.Contains(lostKeys, seq) {
					return Event{}, false
				}
				ev, ok := st.EventAt(seq)
				if ok && counting {
					decodes++
				}
				return ev, ok
			}

			ties := false
			for limit := 1; limit <= 25; limit++ {
				cursor := ""
				for pages := 0; ; pages++ {
					want, wantNext := eagerFeedPage(sh, "reader", cursor, limit)
					decodes, counting = 0, true
					got, next, err := sh.FeedPage(context.Background(), "reader", cursor, limit)
					counting = false
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("limit %d page %d", limit, pages)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: lazy page\n%+v\neager page\n%+v", label, got, want)
					}
					if next != wantNext {
						t.Fatalf("%s: next cursor %q, eager %q", label, next, wantNext)
					}
					if decodes > limit+n {
						t.Fatalf("%s: decoded %d events, bound limit + shards = %d", label, decodes, limit+n)
					}
					for i := 1; i < len(got); i++ {
						ties = ties || got[i].At == got[i-1].At
					}
					if next == "" {
						break
					}
					if pages > 80 {
						t.Fatalf("%s: pagination did not terminate", label)
					}
					cursor = next
				}
				// Feed is the first page, oldest first.
				first, _ := eagerFeedPage(sh, "reader", "", limit)
				slices.Reverse(first)
				if got := sh.Feed("reader", limit); !reflect.DeepEqual(got, first) {
					t.Fatalf("Feed(reader, %d) = %+v, want %+v", limit, got, first)
				}
			}
			if !ties {
				t.Fatal("no page held two events with one timestamp")
			}
		})
	}
}

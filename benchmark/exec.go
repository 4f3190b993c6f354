package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"hive/api"
	"hive/client"
)

// target sends ops to one server through the SDK and checks every
// answer. Checks that need no second copy of the engine run on every
// op; the in-process parity check lives in parity.go.
type target struct {
	c   *client.Client
	ctx context.Context
	// immutable marks a workload without writes: a repeated request must
	// repeat its answer exactly, so the first answer per request is kept
	// and compared against.
	immutable bool
	seen      sync.Map // request key -> joined answer IDs
}

// do performs one op and returns an error when the request failed, was
// refused, or its answer broke an invariant.
func (t *target) do(o op) error {
	c, ctx := t.c, t.ctx
	switch o.Kind {
	case opSearch, opCtxSearch:
		user := ""
		if o.Kind == opCtxSearch {
			user = o.User
		}
		pg, err := c.Search(ctx, o.Query, user, "", searchK)
		if err != nil {
			return err
		}
		ids := make([]string, len(pg.Items))
		for i, r := range pg.Items {
			ids[i] = r.DocID
			if i > 0 && r.Score > pg.Items[i-1].Score {
				return fmt.Errorf("search %q: scores not descending at %d", o.Query, i)
			}
		}
		if len(ids) == 0 || len(ids) > searchK {
			return fmt.Errorf("search %q: %d results, want 1..%d", o.Query, len(ids), searchK)
		}
		if dup := firstDup(ids); dup != "" {
			return fmt.Errorf("search %q: duplicate result %s", o.Query, dup)
		}
		if user != "" {
			// Context re-ranking sums float products in map order, so two
			// documents with the same text can swap places between calls;
			// only the plain ranking is required to repeat.
			return nil
		}
		return t.repeatable("s|"+o.Query, ids)
	case opPreview:
		sn, err := c.Preview(ctx, o.User, o.Ref, previewK)
		if err != nil {
			return err
		}
		if len(sn) == 0 || len(sn) > previewK {
			return fmt.Errorf("preview %s: %d snippets, want 1..%d", o.Ref, len(sn), previewK)
		}
		return nil
	case opProfile:
		u, err := c.GetUser(ctx, o.User)
		if err != nil {
			return err
		}
		if u.ID != o.User {
			return fmt.Errorf("profile %s: got %q", o.User, u.ID)
		}
		return nil
	case opPeerRecs:
		pg, err := c.PeerRecommendations(ctx, o.User, "", peerRecsK)
		if err != nil {
			return err
		}
		ids := make([]string, len(pg.Items))
		for i, r := range pg.Items {
			ids[i] = r.UserID
			if r.UserID == o.User {
				return fmt.Errorf("peer_recs %s: recommends the user themself", o.User)
			}
			if i > 0 && r.Score > pg.Items[i-1].Score {
				return fmt.Errorf("peer_recs %s: scores not descending at %d", o.User, i)
			}
		}
		if len(ids) > peerRecsK {
			return fmt.Errorf("peer_recs %s: %d items, limit %d", o.User, len(ids), peerRecsK)
		}
		return t.repeatable("p|"+o.User, ids)
	case opRelationship:
		ex, err := c.Relationship(ctx, o.User, o.Other)
		if err != nil {
			return err
		}
		if ex.A != o.User || ex.B != o.Other {
			return fmt.Errorf("relationship %s,%s: answered for %s,%s", o.User, o.Other, ex.A, ex.B)
		}
		if ex.Score < 0 || ex.Score > 1 {
			return fmt.Errorf("relationship %s,%s: score %v outside [0,1]", o.User, o.Other, ex.Score)
		}
		return nil
	case opResourceRecs:
		pg, err := c.ResourceRecommendations(ctx, o.User, true, "", resourceK)
		if err != nil {
			return err
		}
		ids := make([]string, len(pg.Items))
		for i, r := range pg.Items {
			ids[i] = r.DocID
		}
		if len(ids) > resourceK {
			return fmt.Errorf("resource_recs %s: %d items, limit %d", o.User, len(ids), resourceK)
		}
		return t.repeatable("r|"+o.User, ids)
	case opSessions:
		pg, err := c.SuggestSessions(ctx, o.User, o.Ref, "", sessionsK)
		if err != nil {
			return err
		}
		for _, s := range pg.Items {
			if !strings.HasPrefix(s.SessionID, o.Ref+"-") {
				return fmt.Errorf("sessions %s@%s: session %s is of another conference", o.User, o.Ref, s.SessionID)
			}
		}
		if len(pg.Items) > sessionsK {
			return fmt.Errorf("sessions %s: %d items, limit %d", o.User, len(pg.Items), sessionsK)
		}
		return nil
	case opDigest:
		sum, err := c.Digest(ctx, o.User, digestRows)
		if err != nil {
			return err
		}
		if len(sum.Rows) > digestRows {
			return fmt.Errorf("digest %s: %d rows, budget %d", o.User, len(sum.Rows), digestRows)
		}
		return nil
	case opFeed:
		pg, err := c.Feed(ctx, o.User, "", feedLimit)
		if err != nil {
			return err
		}
		if len(pg.Items) > feedLimit {
			return fmt.Errorf("feed %s: %d events, limit %d", o.User, len(pg.Items), feedLimit)
		}
		for _, ev := range pg.Items {
			if ev.Actor == "" || ev.Verb == "" {
				return fmt.Errorf("feed %s: event %d has no actor or verb", o.User, ev.Seq)
			}
		}
		return nil
	case opComment:
		return c.Comment(ctx, api.Comment{ID: o.ID, Author: o.User, Target: o.Ref, Text: o.Text})
	case opCheckin:
		return c.CheckIn(ctx, o.Ref, o.User)
	case opFollow:
		return c.Follow(ctx, o.User, o.Other)
	case opAnswer:
		return c.Answer(ctx, api.Answer{ID: o.ID, QuestionID: o.Ref, Author: o.User, Text: o.Text})
	case opAsk:
		return c.Ask(ctx, api.Question{ID: o.ID, Author: o.User, Target: o.Ref, Text: o.Text})
	case opPaper:
		return c.CreatePaper(ctx, api.Paper{
			ID: o.ID, Title: "Scalable " + o.Token, Abstract: o.Text,
			Authors: []string{o.User}, ConferenceID: o.Other, SessionID: o.Ref, Year: 2013,
		})
	}
	return fmt.Errorf("benchmark: unknown op kind %d", o.Kind)
}

// Read-your-write window. At the defining commit a write acknowledged
// while a compaction is in flight is folded into the snapshot only when
// that compaction ends, so "visible when the request returns" holds
// between compactions only. The probe therefore measures how long the
// write took to become visible and fails past the window. A lost write
// never becomes visible, so the window only has to outlast one full
// build on a box running several times slower than the reference one:
// how slow the host is must not decide whether the answer was right.
const (
	probeWindow = 30 * time.Second
	probeRetry  = 10 * time.Millisecond
)

// probe is the read-your-write check: the document a text write just
// created must be found by its unique token, with no refresh requested.
// It reports how many searches it sent.
func (t *target) probe(o op) (requests int, err error) {
	want := "question/" + o.ID
	if o.Kind == opPaper {
		want = "paper/" + o.ID
	}
	deadline := time.Now().Add(probeWindow)
	for {
		requests++
		pg, err := t.c.Search(t.ctx, o.Token, "", "", searchK)
		if err != nil {
			return requests, err
		}
		for _, r := range pg.Items {
			if r.DocID == want {
				return requests, nil
			}
		}
		if time.Now().After(deadline) {
			return requests, fmt.Errorf("read-your-write: %s not found by its token %s within %v", want, o.Token, probeWindow)
		}
		time.Sleep(probeRetry)
	}
}

// repeatable checks, on workloads without writes, that a request seen
// before gets the answer it got before.
func (t *target) repeatable(key string, ids []string) error {
	if !t.immutable {
		return nil
	}
	got := strings.Join(ids, ",")
	if prev, loaded := t.seen.LoadOrStore(key, got); loaded && prev.(string) != got {
		return fmt.Errorf("%s: answer changed on a read-only workload: %s then %s", key, prev, got)
	}
	return nil
}

func firstDup(ids []string) string {
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return id
		}
		seen[id] = true
	}
	return ""
}

package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"hive"
	"hive/api"
)

// tickingClock is a clock shared by every shard of one backend: each
// call is one second after the last, so no two events share a
// timestamp.
func tickingClock() func() time.Time {
	var mu sync.Mutex
	now := time.Unix(1363000000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	}
}

// TestActivityChangesOverShardCounts: activity change monitoring
// answers over every shard's stream, so the route's answer at four
// shards is the one-shard answer, epoch for epoch and bit for bit. The
// traffic plants a switch in the verb mix — six epochs of browsing,
// then two of asking — and the route must flag the first epoch after
// the switch.
func TestActivityChangesOverShardCounts(t *testing.T) {
	const (
		epochEvents = 40
		steady      = 6 // browse epochs before the switch
		switched    = 2 // question epochs after it
	)
	answers := map[int][]api.ActivityChange{}
	for _, n := range []int{1, 4} {
		sh, err := hive.OpenSharded(n, hive.Options{Clock: tickingClock()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewSharded(sh, Config{}))
		t.Cleanup(func() {
			ts.Close()
			sh.Close()
		})

		users := make([]string, 8)
		for i := range users {
			users[i] = fmt.Sprintf("u%d", i)
			expectStatus(t, post(t, ts, "/api/v1/users", api.User{ID: users[i], Name: users[i]}), http.StatusCreated)
		}
		// A browse names a registered user and an object.
		expectStatus(t, post(t, ts, "/api/v1/browses", api.BrowseRequest{UserID: "ghost", Object: "p0"}), http.StatusNotFound)
		expectStatus(t, post(t, ts, "/api/v1/browses", api.BrowseRequest{UserID: "u0"}), http.StatusBadRequest)
		papers := make([]string, 6)
		for i := range papers {
			papers[i] = fmt.Sprintf("p%d", i)
			expectStatus(t, post(t, ts, "/api/v1/papers", api.Paper{ID: papers[i], Title: "Paper " + papers[i],
				Authors: []string{users[i%len(users)]}}), http.StatusCreated)
		}

		// The same seeded traffic at every shard count: the first epoch
		// browses through the typed route, the rest arrive in batches,
		// one per epoch.
		rng := rand.New(rand.NewSource(7))
		pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
		for i := 0; i < epochEvents; i++ {
			expectStatus(t, post(t, ts, "/api/v1/browses", api.BrowseRequest{UserID: pick(users), Object: pick(papers)}), http.StatusCreated)
		}
		for epoch := 1; epoch < steady+switched; epoch++ {
			var req api.BatchRequest
			for i := 0; i < epochEvents; i++ {
				var ent api.BatchEntity
				var err error
				if epoch < steady {
					ent, err = api.NewBatchEntity(api.KindBrowse, api.BrowseRequest{UserID: pick(users), Object: pick(papers)})
				} else {
					ent, err = api.NewBatchEntity(api.KindQuestion, api.Question{ID: fmt.Sprintf("q%d-%d", epoch, i),
						Author: pick(users), Target: pick(papers), Text: "Why?"})
				}
				if err != nil {
					t.Fatal(err)
				}
				req.Entities = append(req.Entities, ent)
			}
			resp := post(t, ts, "/api/v1/batch", req)
			var out api.BatchResponse
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || out.Failed != 0 || out.Applied != epochEvents {
				t.Fatalf("shards=%d epoch %d batch = %+v, %v", n, epoch, out, err)
			}
		}

		var pg api.Page[api.ActivityChange]
		url := fmt.Sprintf("/api/v1/activity/changes?epoch_events=%d&limit=%d", epochEvents, api.MaxPageSize)
		if code := get(t, ts, url, &pg); code != http.StatusOK {
			t.Fatalf("shards=%d: GET %s = %d", n, url, code)
		}
		if len(pg.Items) != steady+switched {
			t.Fatalf("shards=%d: %d epochs, want %d: %+v", n, len(pg.Items), steady+switched, pg.Items)
		}
		answers[n] = pg.Items
	}
	if !reflect.DeepEqual(answers[1], answers[4]) {
		t.Fatalf("activity changes depend on the shard count:\n1 shard  %+v\n4 shards %+v", answers[1], answers[4])
	}
	if !answers[1][steady].Change {
		t.Fatalf("the switch from browsing to asking at epoch %d is not flagged: %+v", steady, answers[1])
	}
}

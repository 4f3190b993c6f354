package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"hive"
	"hive/api"
	"hive/internal/election"
)

// jsonKeys adds the object keys of a decoded JSON document to into as
// dotted paths; array elements add their keys under "name[]", unioned
// over every element.
func jsonKeys(v any, prefix string, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			into[path] = true
			jsonKeys(e, path, into)
		}
	case []any:
		for _, e := range x {
			jsonKeys(e, prefix+"[]", into)
		}
	}
}

// surfaceKeys requests one state surface and returns its key paths.
func surfaceKeys(t *testing.T, method, url string) map[string]bool {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d", method, url, resp.StatusCode)
	}
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	keys := map[string]bool{}
	jsonKeys(doc, "", keys)
	return keys
}

// nodeSurfaces reads healthz and the cluster endpoint of one node, plus
// the admin refresh response when refresh is set, keyed "<name>/<surface>".
func nodeSurfaces(t *testing.T, name, base string, refresh bool, into map[string]map[string]bool) {
	t.Helper()
	into[name+"/healthz"] = surfaceKeys(t, http.MethodGet, base+"/api/v1/healthz")
	into[name+"/cluster"] = surfaceKeys(t, http.MethodGet, base+"/api/v1/cluster")
	if refresh {
		into[name+"/refresh"] = surfaceKeys(t, http.MethodPost, base+"/api/v1/admin/refresh?wait=true")
	}
}

// standaloneSurfaces boots a durable n-shard node, loads the scenario
// over HTTP, compacts, and reads its state surfaces.
func standaloneSurfaces(t *testing.T, n int) map[string]map[string]bool {
	t.Helper()
	sh, err := hive.OpenSharded(n, hive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewSharded(sh, Config{}))
	t.Cleanup(func() {
		ts.Close()
		sh.Close()
	})
	seedViaAPI(t, ts)
	if err := sh.Refresh(); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	nodeSurfaces(t, "node", ts.URL, true, out)
	return out
}

// clusterSurfaces boots a three-node cluster at write quorum 1 (Manual
// electors: A leads, B and C follow), writes through the leader until
// both followers hold a commit index, and reads the leader's and one
// follower's state surfaces.
func clusterSurfaces(t *testing.T) map[string]map[string]bool {
	t.Helper()
	elA, elB, elC := election.NewManual(), election.NewManual(), election.NewManual()
	lA, urlA := listenLocal(t)
	lB, urlB := listenLocal(t)
	lC, urlC := listenLocal(t)
	elA.Set(election.State{Role: election.Leader, Epoch: 1, Leader: urlA})
	a := startQuorumNode(t, lA, urlA, []string{urlB, urlC}, elA, 1, 5*time.Second, nil)
	waitRole(t, a.p, "leader", 5*time.Second)
	elB.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	b := startQuorumNode(t, lB, urlB, []string{urlA, urlC}, elB, 1, 5*time.Second, nil)
	elC.Set(election.State{Role: election.Follower, Epoch: 1, Leader: urlA})
	c := startQuorumNode(t, lC, urlC, []string{urlA, urlB}, elC, 1, 5*time.Second, nil)

	for _, id := range []string{"ann", "bob", "cy"} {
		if err := a.p.RegisterUser(hive.User{ID: id, Name: id, Interests: []string{"graphs"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.p.Refresh(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, f := range []*clusterNode{b, c} {
		waitConverged(t, a.p, f.p, 20*time.Second)
		for f.p.CommitIndex() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never adopted the commit index", f.url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	out := map[string]map[string]bool{}
	nodeSurfaces(t, "leader", urlA, true, out)
	nodeSurfaces(t, "follower", urlB, false, out)
	return out
}

// parentStateKeys is every key path the state surfaces emitted before
// the per-shard record (api.ShardStatus) replaced the hand-built rows,
// recorded from that server in the setups of TestStateSurfacesKeepKeys.
var parentStateKeys = map[string]map[string]string{
	"shards=1": {
		"node/cluster": `epoch peers role shard_count shards shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role`,
		"node/healthz": `age_ms build_ms built_at delta delta.compaction_due ` +
			`delta.compactions delta.deltas_applied delta.graph_pending ` +
			`delta.last_delta_us delta.overlay_docs delta.pending_events ` +
			`delta.tombstones frozen_docs generation replication ` +
			`replication.epoch replication.journal_oldest ` +
			`replication.journal_segments replication.journal_tail ` +
			`replication.role shard_count shards shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role snapshot stale status`,
		"node/refresh": `delta delta.compaction_due delta.compactions ` +
			`delta.deltas_applied delta.graph_pending delta.last_delta_us ` +
			`delta.overlay_docs delta.pending_events delta.tombstones ` +
			`status`,
	},
	"shards=4": {
		"node/cluster": `epoch peers role shard_count shards shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role`,
		"node/healthz": `age_ms build_ms built_at delta delta.compaction_due ` +
			`delta.compactions delta.deltas_applied delta.graph_pending ` +
			`delta.last_delta_us delta.overlay_docs delta.pending_events ` +
			`delta.tombstones frozen_docs generation replication ` +
			`replication.epoch replication.journal_oldest ` +
			`replication.journal_segments replication.journal_tail ` +
			`replication.role shard_count shards shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role snapshot stale status`,
		"node/refresh": `delta delta.compaction_due delta.compactions ` +
			`delta.deltas_applied delta.graph_pending delta.last_delta_us ` +
			`delta.overlay_docs delta.pending_events delta.tombstones ` +
			`status`,
	},
	"cluster": {
		"follower/cluster": `commit_index epoch leader_url peers peers[].alive ` +
			`peers[].applied_seq peers[].epoch peers[].journal_tail ` +
			`peers[].probe_ms peers[].role peers[].url quorum_writes role ` +
			`self shard_count shards shards[].commit_index shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role`,
		"follower/healthz": `age_ms build_ms built_at delta delta.compaction_due ` +
			`delta.compactions delta.deltas_applied delta.graph_pending ` +
			`delta.last_delta_us delta.overlay_docs delta.pending_events ` +
			`delta.tombstones frozen_docs generation replication ` +
			`replication.applied_seq replication.commit_index ` +
			`replication.epoch replication.journal_oldest ` +
			`replication.journal_segments replication.journal_tail ` +
			`replication.leader_tail replication.leader_url ` +
			`replication.quorum_writes replication.role shard_count ` +
			`shards shards[].commit_index shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role snapshot stale status`,
		"leader/cluster": `commit_index epoch leader_url peers peers[].alive ` +
			`peers[].applied_seq peers[].epoch peers[].journal_tail ` +
			`peers[].probe_ms peers[].role peers[].url quorum_writes role ` +
			`self shard_count shards shards[].commit_index shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role`,
		"leader/healthz": `age_ms build_ms built_at delta delta.compaction_due ` +
			`delta.compactions delta.deltas_applied delta.graph_pending ` +
			`delta.last_delta_us delta.overlay_docs delta.pending_events ` +
			`delta.tombstones frozen_docs generation replication ` +
			`replication.commit_index replication.epoch ` +
			`replication.follower_acks replication.follower_acks[].age_ms ` +
			`replication.follower_acks[].applied_seq ` +
			`replication.follower_acks[].epoch ` +
			`replication.follower_acks[].url replication.journal_oldest ` +
			`replication.journal_segments replication.journal_tail ` +
			`replication.quorum_writes replication.role shard_count ` +
			`shards shards[].commit_index shards[].epoch ` +
			`shards[].generation shards[].id shards[].journal_tail ` +
			`shards[].pending_events shards[].role snapshot stale status`,
		"leader/refresh": `delta delta.compaction_due delta.compactions ` +
			`delta.deltas_applied delta.graph_pending delta.last_delta_us ` +
			`delta.overlay_docs delta.pending_events delta.tombstones ` +
			`status`,
	},
}

// TestStateSurfacesKeepKeys: healthz, the cluster endpoint (header,
// shards[], peers[]) and the admin refresh response still emit every
// key they emitted before, with one shard, with four, and on both roles
// of a three-node cluster.
func TestStateSurfacesKeepKeys(t *testing.T) {
	for _, setup := range []struct {
		name string
		read func(t *testing.T) map[string]map[string]bool
	}{
		{"shards=1", func(t *testing.T) map[string]map[string]bool { return standaloneSurfaces(t, 1) }},
		{"shards=4", func(t *testing.T) map[string]map[string]bool { return standaloneSurfaces(t, 4) }},
		{"cluster", clusterSurfaces},
	} {
		t.Run(setup.name, func(t *testing.T) {
			got := setup.read(t)
			for surface, want := range parentStateKeys[setup.name] {
				for _, key := range strings.Fields(want) {
					if !got[surface][key] {
						t.Errorf("%s lost key %q (has %v)", surface, key, sortedKeys(got[surface]))
					}
				}
			}
		})
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestShardRowsCarryTheirShardsState: at four shards, a write routed to
// one owner moves only that owner's healthz row — deltas_applied,
// generation, and the overlay or pending count — while the other rows
// stay as they were, and every row's replication fields are its own
// shard's State().
func TestShardRowsCarryTheirShardsState(t *testing.T) {
	const n = 4
	sh, err := hive.OpenSharded(n, hive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewSharded(sh, Config{}))
	t.Cleanup(func() {
		ts.Close()
		sh.Close()
	})
	seedViaAPI(t, ts)
	if err := sh.Refresh(); err != nil {
		t.Fatal(err)
	}
	var before, after api.Health
	get(t, ts, "/api/v1/healthz", &before)
	expectStatus(t, post(t, ts, "/api/v1/papers", api.Paper{ID: "p-row", Title: "Row probe",
		Abstract: "One owner's shard moves.", Authors: []string{"ann"}}), http.StatusCreated)
	get(t, ts, "/api/v1/healthz", &after)

	owner := api.ShardOf("ann", n)
	if len(before.Shards) != n || len(after.Shards) != n {
		t.Fatalf("healthz rows = %d then %d, want %d", len(before.Shards), len(after.Shards), n)
	}
	for i, a := range after.Shards {
		b := before.Shards[i]
		if i == owner {
			if a.DeltasApplied <= b.DeltasApplied || a.Generation <= b.Generation ||
				(a.OverlayDocs <= b.OverlayDocs && a.PendingEvents <= b.PendingEvents) {
				t.Errorf("owner row %d did not move: before %+v, after %+v", i, b.DeltaHealth, a.DeltaHealth)
			}
		} else if a.DeltaHealth != b.DeltaHealth || a.Generation != b.Generation || a.JournalTail != b.JournalTail {
			t.Errorf("row %d moved for a write owned by shard %d: before %+v gen %d, after %+v gen %d",
				i, owner, b.DeltaHealth, b.Generation, a.DeltaHealth, a.Generation)
		}
		st := sh.Shard(i).State()
		if a.ID != i || a.Role != st.Role || a.Epoch != st.Epoch || a.JournalTail != st.JournalTail {
			t.Errorf("row %d = id %d role %s epoch %d tail %d, shard's State() = role %s epoch %d tail %d",
				i, a.ID, a.Role, a.Epoch, a.JournalTail, st.Role, st.Epoch, st.JournalTail)
		}
	}
}

// dumpStatesOnFailure logs every live node's State() as JSON when the
// test fails — the evidence a flaky cluster run leaves behind. Register
// it after the nodes start so it runs before their cleanup kills them.
func dumpStatesOnFailure(t *testing.T, nodes []*clusterNode) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, n := range nodes {
			if n.killed {
				t.Logf("state of %s: killed", n.url)
				continue
			}
			raw, _ := json.Marshal(n.p.State())
			t.Logf("state of %s: %s", n.url, raw)
		}
	})
}

package api

import (
	"encoding/json"
	"fmt"
	"time"

	"hive/internal/core"
	"hive/internal/rdf"
	"hive/internal/social"
	"hive/internal/summarize"
	"hive/internal/tensor"
	"hive/internal/textindex"
)

// Entity and knowledge-service DTOs. These alias the platform's public
// types: their JSON tags are the v1 wire schema.
type (
	// User is a researcher profile (request body of POST /users).
	User = social.User
	// Conference is an event edition (POST /conferences).
	Conference = social.Conference
	// Session is a technical session (POST /sessions).
	Session = social.Session
	// Paper is a published paper (POST /papers).
	Paper = social.Paper
	// Presentation is uploaded slide content (POST /presentations).
	Presentation = social.Presentation
	// Question is a question about an entity (POST /questions).
	Question = social.Question
	// Answer replies to a question (POST /answers).
	Answer = social.Answer
	// Comment is free-form feedback (POST /comments).
	Comment = social.Comment
	// Workpad is a context-defining resource pad (POST /workpads).
	Workpad = social.Workpad
	// WorkpadItem is one workpad resource (POST /workpads/{id}/items).
	WorkpadItem = social.WorkpadItem
	// Event is one activity-stream entry (feeds, tag fan-out).
	Event = social.Event
	// ChangeEvent is one typed change-log entry (replication feed).
	ChangeEvent = social.ChangeEvent
	// ReplicationBatch is one journaled change batch: sequence range,
	// typed events, and the raw kv write image followers apply verbatim
	// (GET /replication/events).
	ReplicationBatch = social.ReplicationBatch

	// Explanation answers GET /relationship.
	Explanation = core.Explanation
	// PeerRecommendation items fill GET /users/{id}/recommendations/peers.
	PeerRecommendation = core.PeerRecommendation
	// ResourceRecommendation items fill GET /users/{id}/recommendations/resources.
	ResourceRecommendation = core.ResourceRecommendation
	// SessionSuggestion items fill GET /users/{id}/sessions/suggest.
	SessionSuggestion = core.SessionSuggestion
	// SearchResult items fill GET /search.
	SearchResult = core.SearchResult
	// Snippet items answer GET /preview.
	Snippet = textindex.Snippet
	// Summary answers GET /users/{id}/digest.
	Summary = summarize.Summary
	// HistoryEntry items fill GET /users/{id}/history.
	HistoryEntry = core.HistoryEntry
	// ResourceEvidence items answer GET /users/{id}/resource-relationship.
	ResourceEvidence = core.ResourceEvidence
	// KnowledgePath items answer GET /knowledge/paths.
	KnowledgePath = rdf.RankedPath
	// ActivityChange items fill GET /activity/changes: one epoch of the
	// activity stream, its sketch distance from the epoch before and
	// whether that distance flags a structural change.
	ActivityChange = tensor.StreamResult
)

// ConnectRequest is the body of POST /connections: a mutual connection
// between two researchers.
type ConnectRequest struct {
	A string `json:"a"`
	B string `json:"b"`
}

// FollowRequest is the body of POST /follows.
type FollowRequest struct {
	Follower string `json:"follower"`
	Followee string `json:"followee"`
}

// CheckinRequest is the body of POST /checkins.
type CheckinRequest struct {
	SessionID string `json:"session_id"`
	UserID    string `json:"user_id"`
}

// BrowseRequest is the body of POST /browses: a user viewed an object.
type BrowseRequest struct {
	UserID string `json:"user_id"`
	Object string `json:"object"`
}

// ActivateWorkpadRequest is the body of POST /workpads/{id}/activate.
type ActivateWorkpadRequest struct {
	Owner string `json:"owner"`
}

// CreatedResponse acknowledges a successful mutation.
type CreatedResponse struct {
	Status string `json:"status"`
}

// SnapshotHealth reports a shard's serving snapshot: how many swaps it
// has seen, whether change events await it, and its frozen base segment
// — when it was built, how long the build took, how old it is and how
// many documents it holds. Reads are served from the swapped snapshot,
// so "stale" means maintenance is due, not an outage; built_at and
// age_ms describe the base segment, and a snapshot with an applied
// overlay is current regardless of base age.
type SnapshotHealth struct {
	// Generation counts snapshot swaps (deltas and compactions).
	Generation uint64 `json:"generation"`
	// Stale reports that there is no snapshot yet, or that a batch too
	// large to fold was skipped and no compaction has covered it since.
	Stale    bool   `json:"stale"`
	Snapshot bool   `json:"snapshot"`
	BuiltAt  string `json:"built_at,omitempty"`
	BuildMS  int64  `json:"build_ms"`
	AgeMS    int64  `json:"age_ms"`
	// FrozenDocs counts the documents in the snapshot's frozen base
	// segment — the lock-free read representation queries serve from
	// (0 when no snapshot is live). Overlay documents are counted by
	// DeltaHealth.
	FrozenDocs int `json:"frozen_docs"`
	// LastRefreshError reports the most recent maintenance run's
	// failure (delta apply or compaction); absent once one succeeds.
	LastRefreshError string `json:"last_refresh_error,omitempty"`
}

// DeltaHealth reports the incremental-maintenance state of the serving
// snapshot: how large the overlay segment has grown since the last full
// build (the compaction), how many applied events await the next
// compaction, and the latency of the delta path.
type DeltaHealth struct {
	// OverlayDocs and Tombstones size the overlay segment layered over
	// the frozen base.
	OverlayDocs int `json:"overlay_docs"`
	Tombstones  int `json:"tombstones"`
	// PendingEvents is always 0 — every write folds its batch before it
	// returns; kept for clients that read it.
	PendingEvents int `json:"pending_events"`
	// GraphPending counts applied events whose evidence-graph effects
	// await the next compaction.
	GraphPending int `json:"graph_pending"`
	// DeltasApplied and Compactions count snapshot swaps by kind since
	// the server started.
	DeltasApplied uint64 `json:"deltas_applied"`
	Compactions   uint64 `json:"compactions"`
	// LastDeltaUS is the duration of the most recent delta apply in
	// microseconds (deltas are micro- to millisecond work; a millisecond
	// field would round most of them to zero).
	LastDeltaUS int64 `json:"last_delta_us"`
	// CompactionDue reports that the snapshot drifted past the
	// compaction policy and a full rebuild is scheduled-worthy.
	CompactionDue bool `json:"compaction_due"`
}

// RefreshResponse acknowledges a snapshot refresh request and reports
// the resulting maintenance state.
type RefreshResponse struct {
	Status string       `json:"status"`
	Delta  *DeltaHealth `json:"delta,omitempty"`
}

// Replication roles reported by healthz.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// ReplicationHealth reports a node's replication state: its role, the
// durable journal's addressable range, and — on followers — how far
// behind the leader it is. LagEvents is the number of change events the
// leader has journaled that this follower has not yet folded into its
// serving snapshot; it is computed from the tail observed on the most
// recent poll, so it is an at-least bound while disconnected.
type ReplicationHealth struct {
	// Self is the node's advertised URL ("" outside cluster mode).
	Self string `json:"self,omitempty"`
	Role string `json:"role"`
	// Epoch is the leadership term the node has adopted — the fencing
	// token stamped into every batch it journals. 0 on unmanaged
	// in-memory nodes.
	Epoch uint64 `json:"epoch"`
	// JournalOldest/JournalTail bound the locally readable journal
	// range; JournalSegments counts its segment files. All zero when
	// the store is in-memory (no journal, cannot lead).
	JournalOldest   uint64 `json:"journal_oldest"`
	JournalTail     uint64 `json:"journal_tail"`
	JournalSegments int    `json:"journal_segments"`
	// JournalError surfaces the journal append that failed and stopped
	// the node's writes until it restarts (the journal is its only
	// log), else the last failed checkpoint.
	JournalError string `json:"journal_error,omitempty"`

	// CommitIndex is the cluster commit index this node has persisted:
	// the highest change sequence known quorum-acknowledged. Followers
	// adopt it from the leader's poll responses; 0 before any quorum
	// write committed (and always 0 in async mode).
	CommitIndex uint64 `json:"commit_index,omitempty"`
	// QuorumWrites is the configured write quorum (0 = async durability).
	QuorumWrites int `json:"quorum_writes,omitempty"`

	// LeaderURL is the leader this node believes in: itself when an
	// elected leader, the followed URL on a follower, "" on a standalone
	// node or while an election is unresolved.
	LeaderURL string `json:"leader_url,omitempty"`

	// Follower-only fields: the tail loop's position against the leader
	// it currently follows. Bootstraps counts the snapshot bootstraps of
	// that tail loop (1 once booted; more after retention or feed holes
	// forced re-syncs) and Fenced its stale-epoch rejections — batches,
	// feeds or snapshots from a deposed leader it refused to apply. Both
	// restart from 0 when the node starts following a new leader.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	LeaderTail uint64 `json:"leader_tail,omitempty"`
	LagEvents  uint64 `json:"lag_events,omitempty"`
	Bootstraps uint64 `json:"bootstraps,omitempty"`
	Fenced     uint64 `json:"fenced,omitempty"`
	// LastReplicationError reports the tail loop's most recent failure
	// (reconnecting with backoff when set).
	LastReplicationError string `json:"last_replication_error,omitempty"`

	// Promotions counts this node's follower → leader transitions and
	// Deferrals the elections it won but yielded to a more caught-up
	// peer, both since the process started (cluster mode only).
	Promotions uint64 `json:"promotions,omitempty"`
	Deferrals  uint64 `json:"deferrals,omitempty"`

	// FollowerAcks reports, on a leader, each follower's most recent
	// ack: the sequence it confirmed applied, the term it asserted, and
	// how stale the report is. A silently stalled follower shows up here
	// (age growing, applied frozen) before it blocks a quorum.
	FollowerAcks []FollowerAckStatus `json:"follower_acks,omitempty"`
}

// FollowerAckStatus is one follower's ack-lag entry in the leader's
// ReplicationHealth.
type FollowerAckStatus struct {
	URL        string `json:"url"`
	AppliedSeq uint64 `json:"applied_seq"`
	Epoch      uint64 `json:"epoch"`
	// AgeMS is how long ago the follower last reported progress.
	AgeMS int64 `json:"age_ms"`
}

// ShardStatus is one shard's full state, read at once: its serving
// snapshot, its delta pipeline and its replication position. It is the
// one per-shard record — a row of healthz and /cluster shards[], the
// source of the /metrics state gauges, and what hive.Platform.State
// returns. Its pending_events is always 0 — every write folds its batch
// before it returns; kept for clients that read it.
type ShardStatus struct {
	ID int `json:"id"`
	SnapshotHealth
	DeltaHealth
	ReplicationHealth
}

// Health is the GET /healthz response: liveness plus the state of every
// shard. Generation sums and Stale ORs the shards' values (the read
// path's cache key and "any shard behind"); the other snapshot fields
// and the delta and replication blocks are copies of shard 0's row, kept
// at the top level for clients that predate the shards[] rows.
type Health struct {
	Status string `json:"status"`
	SnapshotHealth
	Delta       DeltaHealth       `json:"delta"`
	Replication ReplicationHealth `json:"replication"`
	ShardMap
}

// ShardMap is the deployment's shard map plus one full-state row per
// shard, carried by healthz and the cluster endpoint alike.
type ShardMap struct {
	// ShardCount is the map's size: owners hash to shard
	// ShardOf(owner, ShardCount). 1 (or 0 on pre-shard servers) means
	// everything lives on one shard. Fixed for the life of a data dir.
	ShardCount int `json:"shard_count,omitempty"`
	// Shards holds one row per shard, in shard order (absent on
	// pre-shard servers).
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ReplicationEvents is the GET /replication/events response: the
// journaled batches after the requested sequence, plus the responding
// node's journal tail so the poller can compute its lag. An empty
// Batches with Tail == from means the poller is caught up (a long-poll
// that timed out).
// Epoch is the responding node's leadership term: a poller seeing it
// rise past its own adopted term must re-bootstrap (the compatibility
// rule: accept batches at your term N, re-bootstrap on N+1).
// Commit is the responding node's cluster commit index — the highest
// change sequence a quorum of followers has acknowledged applying
// (0 until a quorum write commits; always 0 in async mode). Followers
// persist it so every member carries the durability watermark.
type ReplicationEvents struct {
	Batches []ReplicationBatch `json:"batches,omitempty"`
	Tail    uint64             `json:"tail"`
	Epoch   uint64             `json:"epoch,omitempty"`
	Commit  uint64             `json:"commit,omitempty"`
}

// ReplicationSnapshot is the GET /replication/snapshot response: the
// full kv image a follower bootstraps from and the change-sequence
// watermark it covers (tail the journal from Seq). Values are base64 in
// JSON per encoding/json's []byte convention.
// Epoch is the term the image was captured under; a follower refuses a
// snapshot behind its adopted term (it would regress onto a deposed
// leader's world) and adopts the term on import otherwise.
type ReplicationSnapshot struct {
	Seq     uint64    `json:"seq"`
	Epoch   uint64    `json:"epoch,omitempty"`
	Entries []KVEntry `json:"entries"`
}

// KVEntry is one key-value pair of a replication snapshot.
type KVEntry struct {
	Key   string `json:"k"`
	Value []byte `json:"v"`
}

// ClusterStatus is the GET /cluster response: the responding node's
// view of the replica set — its own replication block (its URL, role,
// term, the leader it believes in, commit index, ack table), the shard
// map, and a liveness/lag probe of each configured peer. Any node
// answers (followers included), so an operator can ask whichever peer
// they reach; the SDK re-resolves the leader from healthz instead,
// which carries the same leader_url without the peer fan-out.
type ClusterStatus struct {
	ReplicationHealth
	// Peers reports one probe per configured peer; empty outside
	// cluster mode.
	Peers []PeerStatus `json:"peers"`
	// The shard map, as in healthz.
	ShardMap
}

// PeerStatus is one peer's liveness and replication block as probed by
// the responding node at request time (the replication fields are zero
// when the probe failed).
type PeerStatus struct {
	URL string `json:"url"`
	// Alive reports whether the peer answered its healthz probe within
	// the probe budget.
	Alive bool `json:"alive"`
	ReplicationHealth
	// ProbeMS is how long the healthz probe round trip took, in
	// milliseconds (set for answered probes and for timed-out ones —
	// a dead peer reports the full probe budget it burned).
	ProbeMS float64 `json:"probe_ms,omitempty"`
	// Error describes a failed probe.
	Error string `json:"error,omitempty"`
}

// TraceStage is one named, timed step inside a recorded trace.
type TraceStage struct {
	Name string `json:"name"`
	// DurationUS is the stage's wall time in microseconds.
	DurationUS float64 `json:"duration_us"`
}

// TraceInfo is one recorded request trace in the GET
// /api/v1/debug/traces response: the trace ID (minted by the server or
// propagated from the client's X-Hive-Trace-Id), the matched route,
// the resolved shard (-1 when no shard applies) and per-stage timings.
type TraceInfo struct {
	TraceID    string       `json:"trace_id"`
	Method     string       `json:"method"`
	Route      string       `json:"route"`
	Status     int          `json:"status"`
	Shard      int          `json:"shard"`
	StartedAt  time.Time    `json:"started_at"`
	DurationUS float64      `json:"duration_us"`
	Stages     []TraceStage `json:"stages,omitempty"`
}

// TraceReport is the GET /api/v1/debug/traces envelope: the slowest
// recent traces, slowest first, out of the server's bounded in-memory
// ring.
type TraceReport struct {
	Traces []TraceInfo `json:"traces"`
	// Capacity is the ring size — how many recent traces the server
	// retains at most.
	Capacity int `json:"capacity"`
}

// Batch entity kinds accepted by POST /batch.
const (
	KindUser         = "user"
	KindConference   = "conference"
	KindSession      = "session"
	KindPaper        = "paper"
	KindPresentation = "presentation"
	KindConnection   = "connection"
	KindFollow       = "follow"
	KindCheckin      = "checkin"
	KindQuestion     = "question"
	KindAnswer       = "answer"
	KindComment      = "comment"
	KindWorkpad      = "workpad"
	KindBrowse       = "browse"
)

// BatchEntity is one element of a batch: a kind tag plus the entity's
// usual request body. Connection/follow/checkin/browse kinds carry the
// corresponding request DTOs.
type BatchEntity struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// NewBatchEntity marshals v as the data of a tagged batch entity.
func NewBatchEntity(kind string, v any) (BatchEntity, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return BatchEntity{}, fmt.Errorf("api: marshal batch %s: %w", kind, err)
	}
	return BatchEntity{Kind: kind, Data: raw}, nil
}

// BatchRequest is the body of POST /batch. Entities apply in array
// order within a single store pass (one snapshot invalidation total),
// so dependent entities — a conference before its sessions — belong in
// the same batch, in order.
type BatchRequest struct {
	Entities []BatchEntity `json:"entities"`
}

// BatchItemError reports one failed batch element.
type BatchItemError struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	Error *Error `json:"error"`
}

// BatchResponse summarizes a batch: elements are applied independently,
// failures don't abort the rest.
type BatchResponse struct {
	Applied int              `json:"applied"`
	Failed  int              `json:"failed"`
	Errors  []BatchItemError `json:"errors,omitempty"`
}

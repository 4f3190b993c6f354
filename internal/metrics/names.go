package metrics

// The closed registry of metric names. Every registration site outside
// this package must use one of these constants — hivelint's metriccheck
// analyzer flags raw-string names, so the full metric surface is
// greppable here and documented in API.md's Observability section.
const (
	// HTTP surface (internal/server middleware).

	// HTTPRequestsTotal counts requests by route pattern, method and
	// status class ("2xx".."5xx").
	HTTPRequestsTotal = "hive_http_requests_total"
	// HTTPRequestSeconds is the per-route request latency histogram.
	HTTPRequestSeconds = "hive_http_request_seconds"

	// Delta pipeline and snapshot maintenance (hive.Platform).

	// DeltaApplySeconds times one delta batch folding into a snapshot:
	// the serving one, or a compaction's new base at its swap.
	DeltaApplySeconds = "hive_delta_apply_seconds"
	// CompactionSeconds times one full snapshot rebuild (compaction).
	CompactionSeconds = "hive_compaction_seconds"
	// BuildStageSeconds times each stage of a compaction's snapshot
	// build, labeled by stage (core.Engine.BuildStages).
	BuildStageSeconds = "hive_build_stage_seconds"
	// DeltasAppliedTotal counts delta batches folded since start.
	DeltasAppliedTotal = "hive_deltas_applied_total"
	// CompactionsTotal counts snapshot compactions since start.
	CompactionsTotal = "hive_compactions_total"
	// SnapshotGraphBytes is the per-shard size of the serving snapshot's
	// frozen graph layouts (core.Engine.GraphBytes), set at each
	// compaction's swap.
	SnapshotGraphBytes = "hive_snapshot_graph_bytes"
	// SnapshotVectorBytes is the per-shard size of the serving snapshot's
	// text vectors — context rows, session runs and their term
	// dictionary (core.Engine.VectorBytes) — set at each compaction's
	// swap.
	SnapshotVectorBytes = "hive_snapshot_vector_bytes"
	// SearchSeconds times platform-level search calls (the frozen read
	// path; BenchmarkInstrumentedSearch guards its overhead).
	SearchSeconds = "hive_search_seconds"

	// Durability and replication.

	// JournalAppendSeconds times one journal record append (encode +
	// buffered write + flush, under the journal lock).
	JournalAppendSeconds = "hive_journal_append_seconds"
	// ReplicationPollSeconds times one follower long-poll round trip
	// against the leader's events feed.
	ReplicationPollSeconds = "hive_replication_poll_seconds"
	// QuorumAckWaitSeconds times how long a quorum-acknowledged write
	// waited for its k-th follower ack (quorum mode only).
	QuorumAckWaitSeconds = "hive_quorum_ack_wait_seconds"

	// Elections (hive.Platform + internal/election).

	// ElectionPromotionsTotal counts follower->leader transitions.
	ElectionPromotionsTotal = "hive_election_promotions_total"
	// ElectionDemotionsTotal counts leader->follower transitions.
	ElectionDemotionsTotal = "hive_election_demotions_total"
	// ElectionDeferralsTotal counts caught-up-gate promotion deferrals
	// (an election winner yielding to a peer with more history).
	ElectionDeferralsTotal = "hive_election_deferrals_total"
	// LeaseAcquisitionsTotal counts file-lease claims that survived the
	// settle window (new leadership terms minted by this node).
	LeaseAcquisitionsTotal = "hive_election_lease_acquisitions_total"
	// LeaseRenewalsTotal counts lease renewals while leading.
	LeaseRenewalsTotal = "hive_election_lease_renewals_total"

	// Sharded scatter-gather read path.

	// ScatterFanoutSeconds times one whole scatter-gather fan-out,
	// labeled by op ("search", "feed").
	ScatterFanoutSeconds = "hive_scatter_fanout_seconds"

	// Scrape-time state gauges (collected from platform accessors by
	// the /metrics handler; per-shard where labeled).

	// OverlayDocs is the per-shard delta-overlay document count
	// (compaction pressure).
	OverlayDocs = "hive_overlay_docs"
	// ShardDocs is the per-shard frozen-corpus document count.
	ShardDocs = "hive_shard_docs"
	// CommitIndex is the per-shard quorum-durable commit watermark.
	CommitIndex = "hive_commit_index"
	// ReplicationLagEvents is a follower's journal distance behind its
	// leader (0 on leaders).
	ReplicationLagEvents = "hive_replication_lag_events"
	// StoreImageBytes is the per-shard size of the kv store's in-memory
	// image (kvstore.Store.Bytes).
	StoreImageBytes = "hive_store_image_bytes"

	// Go runtime state (runtime/metrics, read by the /metrics handler).

	// GoHeapLiveBytes is the heap the last GC found live
	// (/gc/heap/live:bytes).
	GoHeapLiveBytes = "hive_go_heap_live_bytes"
	// GoGoroutines is the number of live goroutines
	// (/sched/goroutines:goroutines).
	GoGoroutines = "hive_go_goroutines"
	// GoGCCyclesTotal counts completed GC cycles
	// (/gc/cycles/total:gc-cycles).
	GoGCCyclesTotal = "hive_go_gc_cycles_total"
)

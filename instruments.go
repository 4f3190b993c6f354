package hive

import (
	"hive/internal/metrics"
)

// Package-level instruments on the process-wide registry, resolved
// once so the hot paths pay atomic ops only. Latency histograms are
// observed at event time; monotonic totals the Platform already keeps
// as struct atomics (per-shard observability accessors) are counted
// here too, so the exposition needs no scrape-time mirroring and a
// sharded process reports the sum over its shard pipelines — the
// process-wide view an operator scrapes.
var (
	mDeltaApplySeconds = metrics.Default.Histogram(metrics.DeltaApplySeconds,
		"Latency of folding one delta batch into a snapshot (a write's fold or a compaction's replay).", nil)
	mCompactionSeconds = metrics.Default.Histogram(metrics.CompactionSeconds,
		"Latency of one full snapshot rebuild (compaction).", nil)
	mBuildStageSeconds = metrics.Default.HistogramVec(metrics.BuildStageSeconds,
		"Latency of each stage of a compaction's snapshot build.", nil, "stage")
	mDeltasApplied = metrics.Default.Counter(metrics.DeltasAppliedTotal,
		"Delta batches folded into serving snapshots since process start.")
	mCompactions = metrics.Default.Counter(metrics.CompactionsTotal,
		"Snapshot compactions since process start.")
	mSnapshotGraphBytes = metrics.Default.GaugeVec(metrics.SnapshotGraphBytes,
		"Bytes of the serving snapshot's frozen graph layouts: context network, evidence layers, citations, concept map and knowledge base.", "shard")
	mSnapshotVectorBytes = metrics.Default.GaugeVec(metrics.SnapshotVectorBytes,
		"Bytes of the serving snapshot's text vectors: context rows, session runs and their term dictionary.", "shard")
	mSearchSeconds = metrics.Default.Histogram(metrics.SearchSeconds,
		"Latency of platform-level search calls (frozen read path).", nil)
	mQuorumAckWaitSeconds = metrics.Default.Histogram(metrics.QuorumAckWaitSeconds,
		"How long quorum-acknowledged writes waited for their k-th follower ack.", nil)
	mReplicationPollSeconds = metrics.Default.Histogram(metrics.ReplicationPollSeconds,
		"Round-trip latency of follower long-polls against the leader's events feed.", nil)
	mPromotions = metrics.Default.Counter(metrics.ElectionPromotionsTotal,
		"Follower-to-leader transitions since process start.")
	mDemotions = metrics.Default.Counter(metrics.ElectionDemotionsTotal,
		"Leader-to-follower transitions since process start.")
	mDeferrals = metrics.Default.Counter(metrics.ElectionDeferralsTotal,
		"Promotions deferred by the caught-up gate since process start.")
	mScatterSearchSeconds = metrics.Default.HistogramVec(metrics.ScatterFanoutSeconds,
		"Latency of one whole scatter-gather fan-out across shard engines.", nil, "op").With("search")
	mScatterFeedSeconds = metrics.Default.HistogramVec(metrics.ScatterFanoutSeconds,
		"Latency of one whole scatter-gather fan-out across shard engines.", nil, "op").With("feed")
)

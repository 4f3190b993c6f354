package main

import "fmt"

// The metric names and units the runner emits. BENCHMARK.json lists the
// same names with their direction and bound; a unit test keeps the two
// in step, and a metric set under a name missing here panics, so a
// result can never carry a metric the contract does not name.

var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "1/s",
	"primary_p50_ms":   "ms",
	"rss_mb":           "MB",
}

var perLayerUnits = map[string]string{
	// tails of the real process: reported, not gated (see README)
	"e2e.read_p50_ms": "ms",
	"e2e.op_p95_ms":   "ms",
	// client (ladder)
	"client.search.self_us": "us",
	"client.write.self_us":  "us",
	// internal/server (ladder, scrape)
	"server.search.self_us":    "us",
	"server.feed.self_us":      "us",
	"server.peer_recs.self_us": "us",
	"server.write.self_us":     "us",
	"server.resp_bytes_per_op": "B",
	"server.http_requests":     "count",
	"server.http_busy_s":       "s",
	// hive (ladder, scrape)
	"hive.search.self_us":        "us",
	"hive.write.self_us":         "us",
	"hive.deltas_per_write":      "count",
	"hive.deltas_applied":        "count",
	"hive.compactions":           "count",
	"hive.compaction_busy_ratio": "ratio",
	"hive.delta_busy_ratio":      "ratio",
	"hive.overlay_docs_end":      "count",
	"hive.scatter_fanouts":       "count",
	// internal/core (ladder)
	"core.search.self_us":                "us",
	"core.ctx_search.us":                 "us",
	"core.recommend_peers.us":            "us",
	"core.recommend_peers.explain_share": "ratio",
	"core.explain.us":                    "us",
	"core.recommend_resources.us":        "us",
	"core.suggest_sessions.us":           "us",
	"core.digest.us":                     "us",
	"core.apply_delta.us":                "us",
	"core.build.s":                       "s",
	// internal/textindex, graph, biblio, summarize (ladder)
	"textindex.frozen_search.us":    "us",
	"textindex.segmented_search.us": "us",
	"textindex.search_compiled.us":  "us",
	"graph.ppr.us":                  "us",
	"biblio.author_cites_author.us": "us",
	"biblio.shared_references.us":   "us",
	"summarize.greedy.us":           "us",
	// internal/social, kvstore, journal (ladder, scrape, disk)
	"social.mutate.us":            "us",
	"social.feed.us":              "us",
	"kvstore.put.us":              "us",
	"kvstore.wal_bytes_per_write": "B",
	"kvstore.wal_disk_kb":         "KB",
	"journal.append.us":           "us",
	"journal.bytes_per_write":     "B",
	"journal.appends":             "count",
	"journal.disk_kb":             "KB",
	// process, generator, trace
	"proc.rss_peak_mb":              "MB",
	"proc.cpu_ms_per_op":            "ms",
	"loadgen.late_p95_ms":           "ms",
	"trace.overhead_ratio":          "ratio",
	"trace.unaccounted_share.write": "ratio",
}

func (rec *runRecord) setEndToEnd(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: end-to-end metric %q is not in the contract", name))
	}
	rec.EndToEnd[name] = metricValue{v, unit}
}

func (rec *runRecord) setLayer(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: per-layer metric %q is not in the contract", name))
	}
	rec.PerLayer[name] = metricValue{v, unit}
}

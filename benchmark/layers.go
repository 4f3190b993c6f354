package main

import "time"

// scrapeLayers fills the per-layer metrics that come from the real
// process: deltas of its own GET /metrics counters over the timed
// phases ("scrape"), /proc/<pid> readings ("proc"), data-directory
// sizes ("disk") and the load generator's own lateness.
func scrapeLayers(rec *runRecord, before, after scrape, elapsed time.Duration,
	pa procStat, db, da diskUsage, lateP95 float64) {
	delta := func(family string, with ...string) float64 {
		return after.sum(family, with, nil) - before.sum(family, with, nil)
	}

	// internal/server
	rec.setLayer("server.http_requests", after.sum("hive_http_requests_total", nil, auxRoutes)-before.sum("hive_http_requests_total", nil, auxRoutes))
	rec.setLayer("server.http_busy_s", after.sum("hive_http_request_seconds_sum", nil, auxRoutes)-before.sum("hive_http_request_seconds_sum", nil, auxRoutes))

	// hive (platform): delta pipeline, compaction, scatter-gather
	rec.setLayer("hive.deltas_applied", delta("hive_deltas_applied_total"))
	rec.setLayer("hive.compactions", delta("hive_compactions_total"))
	rec.setLayer("hive.compaction_busy_ratio", delta("hive_compaction_seconds_sum")/elapsed.Seconds())
	rec.setLayer("hive.delta_busy_ratio", delta("hive_delta_apply_seconds_sum")/elapsed.Seconds())
	rec.setLayer("hive.overlay_docs_end", after.sum("hive_overlay_docs", nil, nil))
	rec.setLayer("hive.scatter_fanouts", delta("hive_scatter_fanout_seconds_count"))

	// internal/journal and internal/kvstore, as the disk saw them
	rec.setLayer("journal.appends", delta("hive_journal_append_seconds_count"))
	rec.setLayer("journal.disk_kb", float64(da.Journal-db.Journal)/1024)
	rec.setLayer("kvstore.wal_disk_kb", float64(da.WAL-db.WAL)/1024)

	// process and generator
	rec.setLayer("proc.rss_peak_mb", pa.RSSPeakMB)
	rec.setLayer("loadgen.late_p95_ms", lateP95)
}

package main

import "time"

// workloadSpec fixes one traffic mix and the hived topology it runs
// against. Everything here is frozen: a run derives nothing from what it
// measures, so two commits do the same requests at the same rates.
type workloadSpec struct {
	Name string
	Why  string
	// Shards > 1 boots hived -shards N; Durable adds -data DIR.
	Shards  int
	Durable bool
	Mix     []mixEntry
	// Primary is the class whose paced-phase median is the workload's
	// primary_p50_ms: the service the workload exists to judge.
	Primary opKind
	// ClosedOpsPerSec sizes the closed phase: it sends
	// ClosedOpsPerSec × closedShare × seconds requests back to back. It
	// is the closed-phase throughput of the reference box at the commit
	// that defined the benchmark, rounded down.
	ClosedOpsPerSec float64
	// PacedRate is the open-loop rate of the paced phase, about half of
	// ClosedOpsPerSec.
	PacedRate float64
}

const (
	// datasetUsers sizes the dataset every workload loads.
	datasetUsers = 128
	// clients is both the connection and the goroutine count of the load
	// generator; the reference box has two cores and the generator never
	// exceeds nproc.
	clients = 2
	// closedShare and pacedShare split --seconds between the two timed
	// phases.
	closedShare = 0.4
	pacedShare  = 0.6
	// warmupOps is the untimed prefix of every run.
	warmupOps = 200
	// roundsPerRun is how many servers a run sets up and measures, one
	// after another, each given 1/roundsPerRun of --seconds and the same
	// op lists; every end-to-end metric, setup_s too, is the median of the
	// rounds. The host's speed shifts by a fifth on a scale of tens of
	// seconds: three rounds spread over half a minute let the median drop
	// the round a shift caught. More, shorter rounds rather than one long
	// one, because the write workloads slow down as a server's event log
	// grows: at 30 s on one server write_durable falls below its own paced
	// rate and its median latency goes from 2 ms to 200 ms.
	roundsPerRun = 3
	// rssSampleEvery is how often the server's resident set is read
	// during the timed phases.
	rssSampleEvery = 200 * time.Millisecond
	// closedSlack and pacedSlack are how many times its planned length a
	// timed phase may take before its remaining ops are dropped. They exist
	// only to keep a run on a starved box inside the contract's 180 s —
	// three rounds that all ran into both deadlines end after some 130 s —
	// and the reference box never comes near them.
	closedSlack = 4
	pacedSlack  = 3
	// lateLimitMS invalidates a run whose paced generator, with a client
	// free and a request due, sent later than this at the 95th
	// percentile: the numbers would then describe the generator.
	lateLimitMS = 20.0
)

var workloads = []workloadSpec{
	{
		Name: "read_search",
		Why:  "in-memory node, 50% search 30% context search 10% preview 10% profile: the engine answers in microseconds, so SDK and HTTP layers dominate; store, journal and fold do nothing",
		Mix: []mixEntry{
			{opSearch, 50}, {opCtxSearch, 30}, {opPreview, 10}, {opProfile, 10},
		},
		Primary:         opSearch,
		ClosedOpsPerSec: 3000, PacedRate: 1000,
	},
	{
		Name:    "write_durable",
		Why:     "durable node, 70% writes beside 30% reads with read-your-write probes: social mutate, kvstore WAL, journal append and delta fold do the work while compaction runs beside traffic",
		Durable: true,
		Mix: []mixEntry{
			{opComment, 25}, {opCheckin, 15}, {opFollow, 10}, {opAnswer, 10}, {opAsk, 5}, {opPaper, 5},
			{opSearch, 10}, {opCtxSearch, 10}, {opFeed, 10},
		},
		Primary: opComment,
		// 900: a round's closed phase (3 600 ops) must be long enough to hold
		// a compaction. At 2 400 ops it holds one or none and the rounds of
		// one run read 1 324, 709 and 794 ops/s.
		ClosedOpsPerSec: 900, PacedRate: 100,
	},
	{
		Name:    "sharded_mixed",
		Why:     "hived -shards 4 -data, 80% reads 20% writes, zipfian owners so one shard is hot: the only mix where scatter-gather, cross-shard statistics, k-way merge and shard routing run",
		Shards:  4,
		Durable: true,
		Mix: []mixEntry{
			{opSearch, 40}, {opCtxSearch, 20}, {opFeed, 20},
			{opComment, 10}, {opAsk, 5}, {opCheckin, 5},
		},
		Primary:         opSearch,
		ClosedOpsPerSec: 1200, PacedRate: 350,
	},
}

// ungated are workloads the runner knows and BENCHMARK.json does not
// name: `--workload discover` runs and checks them like any other, but
// no later change is accepted or refused by their numbers.
//
// discover is the paper's headline service and was meant to be the
// second gated workload. Its time is all memory-bound evidence code, and
// on the shared 2-core host that is what a neighbour's cache traffic
// slows most: with dataset, op lists and commit all fixed, ten runs in a
// row read 86-132 ops/s and 57-71 ms, an interquartile spread of 21-30 %
// of the median against the 25 % the contract allows a gated metric,
// where the HTTP-bound workloads held 7-16 %. Its services stay measured
// per layer on every traced run (core.recommend_peers.us, core.explain.us,
// biblio.*, summarize.*); gate it again on a runner that is left alone.
var ungated = []workloadSpec{
	{
		Name: "discover",
		Why:  "in-memory node, peer and resource recommendations, relationship, sessions, digest, feed: all time in core evidence code, biblio, summarize and feed reads; HTTP under 2%, storage bypassed",
		Mix: []mixEntry{
			{opPeerRecs, 20}, {opRelationship, 20}, {opResourceRecs, 15},
			{opSessions, 15}, {opDigest, 15}, {opFeed, 15},
		},
		Primary:         opPeerRecs,
		ClosedOpsPerSec: 110, PacedRate: 25,
	},
}

// allWorkloads is every workload the runner knows, gated first.
func allWorkloads() []workloadSpec {
	return append(append([]workloadSpec(nil), workloads...), ungated...)
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

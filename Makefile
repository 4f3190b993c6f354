# Local dev and CI run the exact same commands: CI jobs call these
# targets, so a green `make ci` locally means a green pipeline.

GO      ?= go

.PHONY: build test race bench bench-smoke fmt vet lint vuln race-nightly ci smoke hiveload-smoke examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Micro-benchmarks for measuring while you work. The repo's perf record
# is hiveload (BENCHMARK.json, benchmark/README.md), not this.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Every Go benchmark for one iteration: the BenchmarkE* functions are
# the only timed copy of experiments E1-E12 (EXPERIMENTS.md; E7 was
# dropped), so they must keep compiling and running. The numbers of a 1x run mean nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Static analysis beyond vet: CI installs govulncheck on the runner;
# locally this degrades to a warning when the tool is absent.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

# Nightly-strength race pass: the delta interleaving property tests, the
# frozen graph and knowledge base against their oracles (the adjacency
# lists and the map-index store they replaced), the flat text vectors
# against the map-vector oracle (TestFlatVectorMatchesMapOracle), ranked
# knowledge paths under shuffled triple insertion orders
# (TestRankedPathsIgnoreInsertionOrder), the
# leader/follower convergence test, the election failover/fencing tests,
# the fault-injected quorum no-lost-writes test, the replication
# snapshot taken under concurrent writers and the real-process
# smoke scenarios at a higher -count, catching rare schedules the per-PR
# run might miss; then ten seconds of fuzzing each decoder of bytes from
# disk or the wire — the kv checkpoint records, the journal's segment
# recovery, the journal payloads a store replays at open, the
# replication batches a follower applies and the two cursor forms — of
# the memoised text analysis chain against the uncached one, and of the
# response gzip encoder against compress/gzip (FuzzGzipRoundTrip; its
# seeds reach 70 KB, and minimising an input that size would take the
# whole 10 s, hence -fuzzminimizetime) (the per-PR run only replays
# their seed corpora; -fuzz takes one target per invocation).
race-nightly:
	$(GO) test -race -run 'TestDeltaInterleavingParity|TestDeltaNeverObservesTornBatch|TestApplyDeltaFoldsActivityOutOfSeqOrder|TestConcurrentActivityFoldsMatchBuild|TestSegmentedParity|TestSegmentedDenseMatchesMapOracle|TestShardedFeedLazyMatchesEager|TestWriteVisibleOnReturn|TestFlatVectorMatchesMapOracle' -count=5 . ./internal/core/ ./internal/textindex/
	$(GO) test -race -run 'TestFrozenMatchesAdjacencyOracle|TestKBMatchesMapIndexOracle|TestRankedPathsIgnoreInsertionOrder' -count=5 ./internal/graph/ ./internal/rdf/
	$(GO) test -race -run 'TestLeaderFollowerConvergence' -count=5 ./internal/server/
	$(GO) test -race -run 'TestClusterFailoverConvergence|TestDeposedLeaderFencing' -count=2 ./internal/server/
	$(GO) test -race -run 'TestQuorumNoLostWrites' -count=2 ./internal/server/
	$(GO) test -race -run 'TestReplicationSnapshotIsAtItsWatermark|TestMutationReturnsAfterItsEventsAreDelivered' -count=5 ./internal/social/
	$(GO) test -race -run 'TestIndexModel|TestStoreModel' -count=5 ./internal/kvstore/
	$(GO) test -race -run Smoke -count=5 ./cmd/hived
	$(GO) test -run '^$$' -fuzz 'FuzzReplay' -fuzztime 10s ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexOps' -fuzztime 10s -fuzzminimizetime 1s ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz 'FuzzJournalRecover' -fuzztime 10s ./internal/journal/
	$(GO) test -run '^$$' -fuzz 'FuzzOpenJournalPayload' -fuzztime 10s ./internal/social/
	$(GO) test -run '^$$' -fuzz 'FuzzApplyReplica' -fuzztime 10s ./internal/social/
	$(GO) test -run '^$$' -fuzz 'FuzzTerms' -fuzztime 10s ./internal/textindex/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeCursor' -fuzztime 10s ./api/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeShardCursor' -fuzztime 10s ./api/
	$(GO) test -run '^$$' -fuzz 'FuzzGzipRoundTrip' -fuzztime 10s -fuzzminimizetime 1s ./internal/server/

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The project's own invariant suite (cmd/hivelint: snapshotcheck,
# epochcheck, hookcheck, apierrcheck, metriccheck — see CONTRIBUTING.md) plus go
# vet, plus staticcheck when the runner has it (CI installs a pinned
# version; locally this degrades to a warning, same as vuln).
lint:
	$(GO) run ./cmd/hivelint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# The real-process scenarios alone: the TestSmoke* tests of cmd/hived
# re-execute their own test binary as hived on free ports (boot path,
# SIGKILL/SIGTERM and restart, shard manifest, a three-node cluster).
# `race` already runs them, so `ci` does not list this.
smoke:
	$(GO) test -run Smoke ./cmd/hived

# The repo's benchmark (BENCHMARK.json, benchmark/README.md) as a smoke
# test: vet and unit tests of its module — a module of its own, so
# `go vet ./...` and `go test ./...` do not reach it, yet it compiles
# against this checkout's api and hive packages — then every workload
# for a few seconds against a real hived with all output checks on.
# Proves the benchmark still builds and passes against this checkout;
# the numbers of a --quick run are not comparable with anything.
hiveload-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .
	bash benchmark/run.sh --workload all --quick

# Every program under examples/, built into a temp dir and run: each
# must exit 0. `go build ./...` only compiles them, and an example that
# fails at run time teaches the wrong thing.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		$(GO) build -o "$$tmp/$$name" "./$$dir" && "$$tmp/$$name" >/dev/null \
			|| { echo "FAIL examples/$$name"; exit 1; }; \
		echo "ok   examples/$$name"; \
	done

# lint subsumes vet (hivelint runs `go vet` over the same patterns).
ci: build lint fmt race bench-smoke hiveload-smoke examples

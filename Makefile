# Local dev and CI run the exact same commands: CI jobs call these
# targets, so a green `make ci` locally means a green pipeline.

GO      ?= go

.PHONY: build test race bench bench-smoke fmt vet lint vuln race-nightly ci bin/hived smoke api-smoke repl-smoke failover-smoke quorum-smoke shard-smoke metrics-smoke hiveload-smoke

# The smoke targets boot hived on fixed ports (apismoke's default
# 127.0.0.1:18080, hiveload's own) and share bin/hived, so targets never
# run side by side under -j; the go tool parallelises inside each.
.NOTPARALLEL:

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
# the only timed copy of experiments E1-E12 (EXPERIMENTS.md), so they
# must keep compiling and running. The numbers of a 1x run mean nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Static analysis beyond vet: CI installs govulncheck on the runner;
# locally this degrades to a warning when the tool is absent.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

# Nightly-strength race pass: the delta interleaving property tests, the
# leader/follower convergence test, the election failover/fencing tests,
# and the fault-injected quorum no-lost-writes test at a higher -count,
# catching rare schedules the per-PR run might miss; then ten seconds of
# fuzzing the kv WAL/snapshot record decoder (the per-PR run only
# replays its seed corpus).
race-nightly:
	$(GO) test -race -run 'TestDeltaInterleavingParity|TestDeltaNeverObservesTornBatch|TestSegmentedParity' -count=5 ./internal/core/ ./internal/textindex/
	$(GO) test -race -run 'TestLeaderFollowerConvergence' -count=5 ./internal/server/
	$(GO) test -race -run 'TestClusterFailoverConvergence|TestDeposedLeaderFencing' -count=2 ./internal/server/
	$(GO) test -race -run 'TestQuorumNoLostWrites' -count=2 ./internal/server/
	$(GO) test -run '^$$' -fuzz 'FuzzReplay' -fuzztime 10s ./internal/kvstore/

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The project's own invariant suite (cmd/hivelint: snapshotcheck,
# epochcheck, hookcheck, apierrcheck — see CONTRIBUTING.md) plus go
# vet, plus staticcheck when the runner has it (CI installs a pinned
# version; locally this degrades to a warning, same as vuln).
lint:
	$(GO) run ./cmd/hivelint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# The six end-to-end scenarios of cmd/apismoke, each against a real
# hived built from this checkout. bin/hived is phony so `go build`
# decides what is stale, and a prerequisite so one make invocation
# builds it once however many scenarios it runs.
bin/hived:
	$(GO) build -o bin/hived ./cmd/hived

APISMOKE = $(GO) run ./cmd/apismoke -hived bin/hived

# All six, one build: what CI's smoke job and `make ci` run.
smoke: api-smoke repl-smoke failover-smoke quorum-smoke shard-smoke metrics-smoke

# API contract check: boot hived and drive the entire /api/v1 surface
# through the client SDK.
api-smoke: bin/hived
	$(APISMOKE)

# Two-node replication check: boot a two-member elected cluster
# (leader node first, so the election is deterministic), seed the
# leader over the batch API, read from the follower until converged
# (< 1s propagation bound), and assert the not_leader envelope on
# follower writes.
repl-smoke: bin/hived
	$(APISMOKE) -repl

# Three-node election failover check: boot an elected cluster, put the
# cluster-aware SDK under write load, SIGKILL the leader and assert a
# follower promotes at a higher epoch, the SDK's next write lands
# without re-targeting, and the resurrected old leader's stale-epoch
# state is fenced everywhere.
failover-smoke: bin/hived
	$(APISMOKE) -failover

# Quorum durability check: boot a three-node cluster with -quorum 1,
# assert acknowledged writes advance the cluster commit index, killing
# every follower degrades writes to a typed quorum_unavailable inside
# the ack timeout, a follower restart restores acks, and the commit
# index never regresses across a leader kill.
quorum-smoke: bin/hived
	$(APISMOKE) -quorum

# Sharded write-path check: boot one hived partitioned into four shards
# over a durable data dir, assert the shard map on healthz/cluster,
# owner-routed writes with cross-shard scatter-gather reads, the
# wrong_shard envelope on a mis-declared X-Hive-Shard, the manifest
# refusing a changed shard count, and same-count restart recovery.
shard-smoke: bin/hived
	$(APISMOKE) -sharded

# Observability check: assert over GET /metrics that request counters,
# the scatter-gather fan-out histogram and per-shard gauges advance as
# the SDK drives a routed write, a cross-shard search and a wrong_shard
# 409 — and that one SDK-minted trace ID survives a not_leader redirect,
# recorded on both the rejecting follower and the serving leader.
metrics-smoke: bin/hived
	$(APISMOKE) -metrics

# The repo's benchmark (BENCHMARK.json, benchmark/README.md) as a smoke
# test: its unit tests — a module of its own, so `go test ./...` does not
# reach them — then every workload for a few seconds against a real
# hived with all output checks on. Proves the benchmark still builds and
# passes against this checkout; the numbers of a --quick run are not
# comparable with anything.
hiveload-smoke:
	cd benchmark && $(GO) test .
	bash benchmark/run.sh --workload all --quick

# lint subsumes vet (hivelint runs `go vet` over the same patterns).
ci: build lint fmt race bench-smoke hiveload-smoke smoke

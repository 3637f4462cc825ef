# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-race bench benchmark benchmark-smoke figures cover fmt vet check chaos goldens serve-smoke ingest-smoke dist-smoke loadgen-smoke partition-smoke partition-layout-smoke

all: build check test

# Fast gate for every change: formatting, vet, and a race pass over the
# packages with real concurrency (the MR engine, the simulated DFS, the
# NTGA operators — one mapper or reducer instance serves concurrent tasks, so
# their scratch memory must be per call — the query daemon, and the RPC
# cluster — the latter in -short mode, which still includes the seeded
# network-chaos and partition-recovery tests and the result-sink test
# TestClusterSinkMatchesLocal; the full cross-transport parity sweep runs with
# the ordinary test suite). The final job's task attempts commit their rows
# into one shared result sink, so the sink and decode tests also run ten times
# over under -race (-short leaves out the two engine/catalog sweeps there; the
# single race pass over internal/engine runs them), and so do the
# attempt-counter commit tests, whose concurrent winners fold their counters
# into one job total. The shuffle's tests run three times over under -race:
# a map attempt's sort scratch and a reduce attempt's merge state come from
# pools shared by concurrent attempts, and a worker's sealed segment is read
# by its own reduce and by its Fetch server at once. A DFS file's framed
# chunks are read by concurrent tasks and by the master's ReadRange server
# while other files are written and spliced, and a map-only join attempt
# hands its pooled index and Scratches to the next attempt, so the frame,
# part-file, concat, map-only and placement tests also run three times over
# under -race. The master's scheduling core (internal/cluster/sched.go)
# runs its event-driven tests — the late-report and report cases, the
# exhaustive small-scope walk and the replay — three times over under -race:
# the core must give one action sequence for one event sequence, so any
# dependence on map order or timing shows up as a difference between runs.
# The cluster's wire decoders run inside the net/rpc
# server, so FuzzWireDecode also explores for ten seconds, and so does
# FuzzResponseDecode over the hand-written /query and /jobs body codec that
# server.Client decodes every answer with (checked against encoding/json both
# ways), FuzzParseTriple over the N-Triples
# parser every /ingest line goes through, FuzzParseSPARQL over the SPARQL
# parser every /query body goes through, and FuzzShuffleOrder over the
# prefix-sorted shuffle (arbitrary pairs through a tiny sort buffer, spills
# and multi-pass merges, checked against bytes.Compare order), and
# FuzzDFSFrames over the DFS's framed records (random records written as
# part files, spliced, and read back through every read path against the
# records themselves; the plain test runs replay only their seed corpora). The warehouse and catalog-scan tests run five times
# over under -race: every query reads a warehouse view while Ingest and
# Compact install new ones, and the catalog scan's retried attempts share one
# mapper. The triplegroup join tests run five times over under -race too: one
# join reducer serves concurrent reduce tasks, each group filing its lefts in
# a join index taken from a shared pool, and one map-only join factory builds
# every bucket task's index (the shared-operator test, the probe-then-pin
# reducer against its pin-everything oracle, and the lefts-only group).
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	go test -race ./internal/mapreduce/ ./internal/hdfs/ ./internal/server/ ./internal/workload/ ./internal/core/ ./internal/core/hash64/ ./internal/ntgamr/ ./internal/query/ ./internal/rdf/ ./internal/engine/
	go test -race -count=10 -short -run 'Sink|Decode' ./internal/engine/
	go test -race -count=10 -short -run 'AttemptCounters' ./internal/mapreduce/
	go test -race -count=3 -run 'Shuffle|Spill|Segment|AllocationCeiling' ./internal/mapreduce/ ./internal/cluster/
	go test -race -count=3 -run 'Frame|PartFile|Concat|MapOnly|Placement' ./internal/hdfs/ ./internal/mapreduce/ ./internal/ntgamr/ ./internal/cluster/
	go test -race -short ./internal/cluster/
	go test -race -count=3 -run 'Sched|ReportRejects|FetchFailuresCharge|RevivalCarries' ./internal/cluster/
	go test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/cluster/
	go test -run '^$$' -fuzz '^FuzzResponseDecode$$' -fuzztime 10s ./internal/server/
	go test -run '^$$' -fuzz '^FuzzParseTriple$$' -fuzztime 10s ./internal/rdf/
	go test -run '^$$' -fuzz '^FuzzParseSPARQL$$' -fuzztime 10s ./internal/sparql/
	go test -run '^$$' -fuzz '^FuzzShuffleOrder$$' -fuzztime 10s ./internal/mapreduce/
	go test -run '^$$' -fuzz '^FuzzDFSFrames$$' -fuzztime 10s ./internal/hdfs/
	go test -race ./internal/ingest/
	go test -race -count=5 -run 'Warehouse|Catalog.*Fault' ./internal/ingest/ ./internal/plan/
	go test -race -count=5 -run 'SharedOperators|PinAllOracle|LeftsWithoutRight' ./internal/ntgamr/
	go test -race -count=3 -run 'SinkMatchesPersisted|EnginesSinkInTaskOrder|SharedOperators' ./internal/engine/ ./internal/ntgamr/
	go test ./internal/plan/ ./internal/explain/

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -w .

test:
	go test ./...

test-race:
	go test -race ./...

# Full chaos sweep: every catalog query on every engine with mid-phase
# faults, node kills, and speculation armed (internal/integration/chaos_test.go).
# A local convenience only: `go test ./...` (the `test` target and CI's Test
# step) runs without -short and so already executes TestChaos* and TestFuzz*;
# CI has no separate chaos step (its -fuzz runs, FuzzWireDecode,
# FuzzResponseDecode, FuzzParseTriple, FuzzParseSPARQL, FuzzShuffleOrder and
# FuzzDFSFrames, are in check).
chaos:
	go test ./internal/integration -run TestChaos -count=1 -timeout 15m

# One testing.B target per paper figure/table + per-query micros.
bench:
	go test -bench=. -benchmem ./...

# The repository's one yardstick (BENCHMARK.json): every workload, both
# passes, per-metric report on stderr. Pass harness flags through ARGS, e.g.
# `make benchmark ARGS="-workload batch_flat -out a.json"`.
benchmark:
	bash benchmark/run.sh $(ARGS)

# The harness's own tests at smoke sizes (about 15 s). The nested module is
# invisible to `go test ./...` at the root; the root guard test only vets it.
benchmark-smoke:
	cd benchmark && go test ./...

# Regenerate every figure of the paper's evaluation as text tables.
figures:
	go run ./cmd/ntga-bench -fig all

# End-to-end daemon smoke test: boot ntga-serve, query it over HTTP twice
# (the repeat must be a result-cache hit with zero MR cycles), exercise the
# ntga-run client mode, and check /healthz and /metrics.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end incremental-ingestion smoke test: boot ntga-serve, prime the
# result cache, POST a delta batch through ntga-run -server -ingest (the unaffected
# cached entry must survive as a zero-cycle hit while the affected query
# re-executes and sees the delta rows), then run delta-merge compaction and
# assert the chain drains with the servable content unchanged.
ingest-smoke:
	sh scripts/ingest_smoke.sh

# End-to-end distributed smoke test: boot ntga-serve -workers (the daemon
# hosting the master) + two ntga-worker processes over RPC, run a query
# through ntga-run -server, kill -9 one worker mid-run, and assert every run
# prints output byte-identical to a local ntga-run over the same data with
# the daemon's -reducers and -split-records.
dist-smoke:
	sh scripts/dist_smoke.sh

# End-to-end partition-tolerance smoke test: boot ntga-serve -workers + two
# ntga-worker processes (one behind the seeded chaos transport), cut the
# worker↔master edge mid-query and assert recovery with local-identical
# output, then kill -9 the daemon (the master), restart it on the same
# addresses, and assert both workers re-register and answer queries again
# (scripts/partition_smoke.sh).
partition-smoke:
	sh scripts/partition_smoke.sh

# End-to-end bucketed-layout smoke test: run a repeat-joined O-S chain
# query flat and with -partition-buckets (loader builds the hash-of-subject
# layout, the planner rewrites onto the map-only path), assert the
# partitioned workflow shuffled zero bytes, and byte-diff the sorted rows
# against the flat run (scripts/partition_layout_smoke.sh).
partition-layout-smoke:
	sh scripts/partition_layout_smoke.sh

# End-to-end load-harness smoke test: replay a short seeded Zipf trace
# in-process and over HTTP (against a daemon running adaptive admission),
# asserting non-zero throughput and zero byte-level diffs vs the serial
# reference (scripts/loadgen_smoke.sh).
loadgen-smoke:
	sh scripts/loadgen_smoke.sh

# Regenerate the EXPLAIN golden files (internal/explain/testdata) after
# intentional planner or cost-model changes. CI fails if they are stale.
goldens:
	go test ./internal/explain/ -run TestExplainGoldens -update

cover:
	go test -cover ./...

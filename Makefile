.PHONY: build test race vet fmt fmtcheck bench benchgate benchboard benchboard-md tracesmoke tracedemo fuzz regionsmoke faultsmoke compresssmoke scalesmoke profile replay gobench sim sched

# Bench samples per nondeterministic suite (S2/S6): `make bench K=3`
# reruns them K times and appends min/median noise entries to the history.
K ?= 1

# Archived per-commit snapshots kept under artifacts/bench; the history
# store carries the full trajectory, so retention only bounds disk.
KEEP ?= 10

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# Fail when any file is not gofmt-clean (CI gate).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

fmtcheck: fmt

# Write the scheduler perf trajectory: the S2 placement comparison
# (complete-only vs planner-backed, lru vs mincost), the S3 prefetch
# comparison (visible config time with and without speculative loads), the
# S4 region-granularity comparison (single- vs dual-region boards at equal
# total fabric), the S6 scaling sweep (sharded dispatch throughput and
# sojourn percentiles vs offered load, on its own committed 32-board
# capacity spec), the S7 fault sweep (availability under injected upsets
# with scrubbing), the S8 load-path comparison (complete vs diff vs
# compressed vs compressed+DMA) on the seeded 60-request mixed workload,
# and the S9 latency-SLO replay (deterministic sojourn percentiles over
# the S6 arrival traces), as tables on stdout and BENCH_sched.json. Each
# refresh is also archived under artifacts/bench keyed by the current
# commit (pruned to the newest KEEP), every record's metrics are appended
# to the per-commit history store that cmd/benchboard plots, and the
# README sparkline section is refreshed — so the perf trajectory survives
# baseline rewrites.
bench:
	mkdir -p artifacts/bench
	go run ./cmd/fpgad -compare -json BENCH_sched.json -sys32 2 -sys64 2 -n 60 -seed 7 -batch 4 \
		-mix "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1" \
		-history artifacts/bench/history.jsonl -sha $$(git rev-parse --short HEAD) -samples $(K)
	cp BENCH_sched.json artifacts/bench/BENCH_sched.$$(git rev-parse --short HEAD).json
	go run ./cmd/benchboard -prune $(KEEP) -readme README.md

# CI bench-regression gate, a pure check: rerun the comparison into a
# scratch file and fail if any gated metric regresses past its band against
# the committed BENCH_sched.json on any configuration. What is gated, in
# which direction and at which band is declared once, in
# internal/bench.Suites: visible config time and bytes streamed on every
# suite (15%; the concurrency-noisy S2 rows 40%; the S6 all-hit zeros
# absolutely — any config byte on the capacity drive's request path
# fails), plus every declared metric of the deterministic suites: S3/S4
# hidden config time, S7 availability and repair time, S8 availability and
# DMA overlap, and the S9 sojourn p50/p95/p99 SLOs at 1%. It writes
# nothing that is versioned. After an intended perf change, run `make
# bench` and commit the refreshed baseline.
benchgate:
	go run ./cmd/fpgad -compare -json BENCH_fresh.json -sys32 2 -sys64 2 -n 60 -seed 7 -batch 4 \
		-mix "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"
	go run ./cmd/benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json; \
		rc=$$?; rm -f BENCH_fresh.json; exit $$rc

# Serve the perf-trajectory dashboard: per-commit config-time /
# wire-bytes / availability / sustained-rate curves from the history
# store, regression points ringed by the same band math as the gate.
benchboard:
	go run ./cmd/benchboard -extract
	go run ./cmd/benchboard -serve localhost:8321

# Render the trajectory statically: lift any archived snapshots into the
# history store, then write the markdown table and one SVG per
# (suite, metric) under artifacts/bench/board (uploaded by CI).
benchboard-md:
	go run ./cmd/benchboard -extract \
		-md artifacts/bench/board/TRAJECTORY.md -svg artifacts/bench/board

# Trace/metrics smoke: deterministic trace export (two paced runs are
# byte-identical), the zero-overhead disabled path, span-sum conservation
# against the scheduler's Stats accounting, the metrics registry and the
# gated S9 SLO replay (its shape and wire rows, and that two runs emit
# byte-identical rows), under the race detector.
tracesmoke:
	go test -run 'Trace|Metrics|SLO' -race ./...
	go test -run 'DeclaredSuitesReproduce/S9' -race ./internal/bench

# Render a Perfetto-loadable Chrome trace of the S8 paired drive (the
# densest deterministic load-path exercise: differential, compressed and
# DMA-overlapped streams on sibling regions). Open artifacts/trace/s8.json
# in https://ui.perfetto.dev or chrome://tracing.
tracedemo:
	mkdir -p artifacts/trace
	go run ./cmd/fpgad -compare -trace artifacts/trace/s8.json \
		-sys32 2 -sys64 2 -n 60 -seed 7 -batch 4 \
		-mix "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1" \
		> /dev/null
	@echo "trace: artifacts/trace/s8.json"

# Fuzz smoke: the loader must reject damaged differential streams without
# wedging (CRC or state-machine error, never silent misconfiguration),
# multi-region differentials must stay inside their region's frame spans,
# damaged compressed containers must never decode to divergent frames, and
# the table-driven CRC16 — one update and the four-word stream fold — must
# equal the bit-serial one, and page-local memory access must equal a
# byte-at-a-time model.
fuzz:
	go test -run '^$$' -fuzz FuzzLoaderDifferentialStream -fuzztime 10s ./internal/bitstream
	go test -run '^$$' -fuzz FuzzCompressedStream -fuzztime 10s ./internal/bitstream
	go test -run '^$$' -fuzz '^FuzzCRC$$' -fuzztime 10s ./internal/bitstream
	go test -run '^$$' -fuzz FuzzCRCStream -fuzztime 10s ./internal/bitstream
	go test -run '^$$' -fuzz FuzzRegionPlanner -fuzztime 10s ./internal/plan
	go test -run '^$$' -fuzz FuzzMemoryAccess -fuzztime 10s ./internal/memctl

# Multi-region smoke: the per-region hazard gate, sibling-region hits and
# speculative byte conservation under the race detector.
regionsmoke:
	go test -run Region -race ./...

# Fault smoke: injection, readback scrubbing, quarantine/repair, the
# scrub/abort interaction and the S7 sweep (two runs emit byte-identical
# rows), under the race detector.
faultsmoke:
	go test -run 'Fault|Scrub' -race ./...
	go test -run 'DeclaredSuitesReproduce/S7' -race ./internal/bench

# Compression/DMA smoke: the compressed codec round trip, the planner's
# fourth stream kind, decode-side hazard gating and sibling-region DMA
# overlap, under the race detector.
compresssmoke:
	go test -run 'Compress|DMA' -race ./...

# Sharded-dispatch smoke: work-stealing FIFO order, cross-shard
# conservation laws and the S6 open-loop scaling drives, under the race
# detector (deterministic checks only; host throughput is measured by
# BenchmarkScalingDispatch).
scalesmoke:
	go test -run 'Shard|Scaling' -race ./...

# Profile the sharded dispatcher under a saturating open-loop drive: CPU
# and mutex-contention profiles land in artifacts/profile for
# `go tool pprof`. For a live view use `go run ./cmd/fpgad -pprof
# localhost:6060 ...` instead.
profile:
	mkdir -p artifacts/profile
	go run ./cmd/fpgad -sys32 8 -n 4000 -mix jenkins=1 -batch 1 -seed 7 \
		-shards 4 -rate 2000000 \
		-cpuprofile artifacts/profile/cpu.pprof -mutexprofile artifacts/profile/mutex.pprof
	@echo "profiles: artifacts/profile/cpu.pprof artifacts/profile/mutex.pprof"

# Fault replay: generate the seeded S7 upset campaign as a JSONL artifact,
# then replay it against the scheduled pool and write the availability
# records. Both steps are deterministic for a fixed seed: rerunning
# reproduces artifacts/fault-replay byte for byte.
replay:
	mkdir -p artifacts/fault-replay
	go run ./cmd/faultreplay -scenario sweep -n 60 -seed 7 \
		-out artifacts/fault-replay/fault_scenarios.jsonl
	go run ./cmd/faultreplay -scenario sweep -n 60 -seed 7 \
		-replay artifacts/fault-replay/fault_scenarios.jsonl \
		-json artifacts/fault-replay/BENCH_replay.json

# Go benchmark harness (paper tables, scheduler economics and per-layer
# host cost: FrameCRC, LoaderLoad, StaticHash, Assemble,
# AssembleDifferential, Scrub, StaticCheck, the core load CPUStreamLoad,
# the bus/icap store path ICAPStores, and the all-hit serve path:
# JenkinsHit, UncachedLW and RunnerData). One iteration each, with
# allocation counts.
gobench:
	go test -bench . -benchtime 1x -benchmem ./...

# Regenerate the paper's tables and figures.
sim:
	go run ./cmd/fpgasim

# Drive a mixed workload through the reconfiguration scheduler.
sched:
	go run ./cmd/fpgad -sys32 2 -sys64 2 -n 48 -batch 4 -policy mincost \
		-mix "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"

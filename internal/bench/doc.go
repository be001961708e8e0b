// Package bench regenerates every table and figure of the paper's
// evaluation from the simulated platforms, and measures the scheduler
// layers grown on top of them.
//
// Two kinds of artifact live here:
//
//   - The paper tables (T1–T12, A1/A2): one generator per artifact,
//     shared by the fpgasim command and the Go benchmark harness.
//
//   - The scheduler suites (S1–S9): seeded, reproducible drives of the
//     multi-system pool — S2 placement, S3 prefetch, S4 region
//     granularity, S5 open-loop arrival replay, S6 sharded-dispatch
//     scaling, S7 fault availability, S8 compressed/DMA load paths, S9
//     latency-SLO replay.
//
// Each suite renders a human-readable Table and converts its runs into
// wire rows (PlacementRecord, the one row type). Suites declares, once,
// each suite's determinism and each metric's unit, direction and band;
// the history writer, cmd/benchdiff (the CI gate over the committed
// BENCH_sched.json baseline) and cmd/benchboard (the per-commit trajectory
// over artifacts/bench/history.jsonl) all read it. The band math and the
// history I/O live in the nested package internal/bench/gate.
package bench

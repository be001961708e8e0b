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
// Every suite, and fpgad's single run, drives the scheduler through one
// function, Drive.Run: it boots the pool, submits the seeded workload in
// one of five shapes (Upfront, Paced, Windowed, Paired, OpenLoop), fails
// on the first request error or a corrupted static design, and always
// quiesces the scheduler before returning. A suite is a list of labelled
// drives, a run type, its Table and its rows; S5 and S9 share one replay
// (ReplaySpec) of a paced service trace through a virtual k-server queue.
//
// Each suite renders a human-readable Table and converts its runs into
// wire rows (PlacementRecord, the one row type). Suites declares, once,
// each suite's committed spec, its determinism and each metric's unit,
// direction and band; the history writer, cmd/benchdiff (the CI gate over
// the committed BENCH_sched.json baseline) and cmd/benchboard (the
// per-commit trajectory over artifacts/bench/history.jsonl) all read it.
// The band math and the history I/O live in the nested package
// internal/bench/gate.
package bench

package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// SLOSpec pins one S9 latency-SLO evaluation: the S6 capacity drive's
// arrival traces replayed against pinned placement through the
// deterministic k-server overlay. Where S6 drives the live sharded
// scheduler (host-dependent feeder interleaving, gated only through its
// zero config/bytes invariant), S9 removes every source of
// nondeterminism — the service trace comes from a paced window-1 all-hit
// drive and the queueing from the pure-arithmetic replay — so its sojourn
// percentiles reproduce byte-identically and can be gated as hard SLO
// columns.
type SLOSpec struct {
	Pool   pool.Config
	Seed   int64
	N      int
	Module string // the single module, pinned resident in every slot
	Policy string

	Process string // arrival process (see GenArrivals)

	// MeanService fixes the offered-load axis exactly as in ScalingSpec:
	// at offered load rho the mean inter-arrival gap is
	// MeanService/(members*rho), so the S9 arrival traces are the same
	// byte-identical traces the S6 drive consumes.
	MeanService sim.Time

	Rhos []float64
}

// DefaultSLOSpec is the committed S9 configuration: the same pool, seed,
// workload depth, module, arrival process and offered loads as
// DefaultScalingSpec, so the S9 rows are the deterministic twins of the
// S6 poisson column.
func DefaultSLOSpec() SLOSpec {
	return SLOSpec{
		Pool:        pool.Config{Sys32: 32},
		Seed:        7,
		N:           8000,
		Module:      "jenkins",
		Policy:      "lru",
		Process:     "poisson",
		MeanService: 60 * sim.Microsecond,
		Rhos:        []float64{0.25, 1, 4},
	}
}

// SLORun is one offered-load row of the S9 table.
type SLORun struct {
	Label   string
	Rho     float64
	Process string
	MeanGap sim.Time

	P50, P95, P99, Max sim.Time
	Makespan           sim.Time
	N                  int

	// Members is the replay's server count (the pool's member count) and
	// AvgService the measured mean of the shared all-hit service trace;
	// Stats is the paced pinned-placement run it was measured on.
	Members    int
	AvgService sim.Time
	Stats      sched.Stats
}

// SimThroughput is the replay's completion rate in requests per simulated
// second.
func (r SLORun) SimThroughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.N) / (float64(r.Makespan) / float64(sim.Second))
}

// SLOServiceTrace measures the spec's all-hit service trace: the module
// is pinned (pre-loaded) into every slot, then the seeded workload runs
// paced closed-loop (window 1, settled between arrivals), so every
// request is a bitstream cache hit and its latency is pure execution
// time. Paced submission makes the per-request trace byte-identical run
// to run — the property the S6 live drive gives up for capacity
// measurement and S9 exists to keep.
func SLOServiceTrace(spec SLOSpec) ([]sim.Time, int, sched.Stats, error) {
	policy, err := sched.PolicyByName(spec.Policy)
	if err != nil {
		return nil, 0, sched.Stats{}, err
	}
	mix, err := sched.ParseMix(spec.Module)
	if err != nil {
		return nil, 0, sched.Stats{}, err
	}
	w, err := sched.GenWorkload(spec.Seed, spec.N, mix)
	if err != nil {
		return nil, 0, sched.Stats{}, err
	}
	p, err := pool.New(spec.Pool)
	if err != nil {
		return nil, 0, sched.Stats{}, err
	}
	// Pin placement: host the module in every slot before the drive.
	for _, m := range p.Members() {
		for ri := 0; ri < m.Sys.NumRegions(); ri++ {
			if _, err := m.Sys.LoadModuleOn(ri, spec.Module); err != nil {
				return nil, 0, sched.Stats{}, fmt.Errorf("bench: pin member %d region %d: %w", m.ID, ri, err)
			}
		}
	}
	s := sched.New(p, sched.Options{Batch: 1, Policy: policy})
	services := make([]sim.Time, 0, len(w))
	var firstErr error
	s.SubmitWindowed(w, 1, func(r sched.Result) {
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err)
		}
		services = append(services, r.Latency())
		settle(s)
	})
	s.Wait()
	if firstErr != nil {
		return nil, 0, sched.Stats{}, firstErr
	}
	return services, p.Size(), s.Stats(), nil
}

// SLORuns measures the pinned-placement service trace once and replays it
// through the virtual k-server queue under the spec's arrival process at
// each offered load — the same GenArrivals traces the S6 drive submits.
// Everything downstream of the paced run is arithmetic, so the rows
// reproduce exactly.
func SLORuns(spec SLOSpec) ([]SLORun, error) {
	services, members, stats, err := SLOServiceTrace(spec)
	if err != nil {
		return nil, err
	}
	var total sim.Time
	for _, s := range services {
		total += s
	}
	avg := total / sim.Time(len(services))
	runs := make([]SLORun, 0, len(spec.Rhos))
	for _, rho := range spec.Rhos {
		if rho <= 0 {
			return nil, fmt.Errorf("bench: offered load %v", rho)
		}
		mean := sim.Time(float64(spec.MeanService) / (float64(members) * rho))
		arr, err := GenArrivals(spec.Seed, len(services), spec.Process, mean)
		if err != nil {
			return nil, err
		}
		soj, makespan := ReplayOpenLoop(arr, services, members)
		run := SLORun{
			Label:   fmt.Sprintf("rho-%.2g/%s", rho, spec.Process),
			Rho:     rho,
			Process: spec.Process,
			MeanGap: mean, Makespan: makespan, N: len(soj),
			Members: members, AvgService: avg, Stats: stats,
		}
		for _, l := range soj {
			if l > run.Max {
				run.Max = l
			}
		}
		pct := Percentiles(soj, 0.50, 0.95, 0.99)
		run.P50, run.P95, run.P99 = pct[0], pct[1], pct[2]
		runs = append(runs, run)
	}
	return runs, nil
}

// SLORecords converts S9 runs into rows. Unlike every other latency
// column in the bench economy, the percentiles here are deterministic, so
// the declaration gates all three: a commit that moves p99 past the band
// fails benchdiff the same way a config_ms regression does.
func SLORecords(runs []SLORun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		row := PlacementRun{Label: r.Label, Policy: "lru", Planner: true, Stats: r.Stats}.Row("S9")
		row.ArrivalProcess = r.Process
		row.OfferedLoad = r.Rho
		row.P50Ms = r.P50.Milliseconds()
		row.P95Ms = r.P95.Milliseconds()
		row.P99Ms = r.P99.Milliseconds()
		row.SimThroughputRPS = r.SimThroughput()
		out = append(out, row)
	}
	return out
}

// SLOTable renders table S9: deterministic sojourn percentiles of the
// pinned-placement service trace under the S6 arrival traces. Raw()
// carries each row's p99 sojourn in femtoseconds.
func SLOTable(runs []SLORun) *Table {
	t := &Table{ID: "S9", Title: "Latency SLO: gated sojourn percentiles of the pinned-placement replay",
		Columns: []string{"process", "offered load", "mean gap", "p50", "p95", "p99", "max", "throughput"}}
	for _, r := range runs {
		thr := "-"
		if r.Makespan > 0 {
			thr = fmt.Sprintf("%.0f/s", r.SimThroughput())
		}
		t.AddRow(r.Process, fmt.Sprintf("%.2f", r.Rho), fmtNS(float64(r.MeanGap)),
			fmtNS(float64(r.P50)), fmtNS(float64(r.P95)), fmtNS(float64(r.P99)),
			fmtNS(float64(r.Max)), thr)
		t.rawNS = append(t.rawNS, float64(r.P99))
	}
	if len(runs) > 0 {
		r := runs[0]
		t.Notes = append(t.Notes,
			fmt.Sprintf("service trace: %d all-hit requests, avg service %v, replayed over %d virtual servers (paced pinned-placement run)", r.N, r.AvgService, r.Members))
	}
	t.Notes = append(t.Notes,
		"deterministic twin of the S6 poisson column: same pool, seed, arrival traces and offered loads, but paced service measurement and arithmetic replay instead of the live sharded drive",
		"p50/p95/p99 here are CI-gated SLO columns — they reproduce byte-identically, so any regression past the band fails benchdiff")
	return t
}

package bench

import (
	"fmt"

	"repro/internal/sim"
)

// ReplaySpec pins one open-loop replay table: a service trace measured
// once by a Paced drive — the deterministic per-request costs — replayed
// through the virtual k-server queue (ReplayOpenLoop) under each arrival
// process at each offered load. Everything downstream of the paced run is
// arithmetic, so the rows reproduce exactly.
//
// Two tables share the shape. S5 replays the mixed workload's service
// trace under every arrival process; S9 replays the S6 capacity drive's
// all-hit trace (its module pinned in every slot) under S6's own Poisson
// arrival traces, so its sojourn percentiles are the deterministic twins
// of the live S6 column and can be gated as SLOs.
type ReplaySpec struct {
	ID    string
	Title string
	// Label lays out a row label from (process, rho).
	Label string
	// TraceNote lays out the table's first note from the service trace's
	// (requests, average service, members).
	TraceNote string
	Notes     []string

	// Drive measures the service trace; it is always driven Paced.
	Drive     Drive
	Processes []string
	Rhos      []float64
	// MeanService fixes the offered-load axis: at offered load rho the
	// mean inter-arrival gap is MeanService/(members*rho). Zero uses the
	// trace's measured average service.
	MeanService sim.Time
}

// ArrivalSpec is the S5 replay of a placement spec's workload: the
// service trace of a planner-backed mincost drive, under every arrival
// process at offered loads 0.7 and 0.95. S5 characterizes the queueing of
// the paced service trace; the live open-loop scaling curve is S6, which
// drives the real sharded scheduler instead of the balanced k-server
// ideal.
func ArrivalSpec(spec PlacementSpec) ReplaySpec {
	return ReplaySpec{
		ID:        "S5",
		Title:     "Open-loop arrivals: latency percentiles over the measured service trace",
		Label:     "%s/rho-%.2f",
		TraceNote: "service trace: %d requests, avg service %v over %d members (paced mincost+planner run)",
		Notes: []string{
			"sojourn = queue wait + service through a virtual FCFS replay; the scheduler's own accounting measures service only",
			fmt.Sprintf("bursty arrivals come in groups of %d at a tenth of the mean gap", burstLen),
		},
		Drive:     Drive{Pool: spec.Pool, Policy: "mincost", Workload: spec.Workload},
		Processes: ArrivalProcesses(),
		Rhos:      []float64{0.7, 0.95},
	}
}

// DefaultSLOSpec is the committed S9 configuration: the same pool, seed,
// workload depth, module, arrival process, service calibration and
// offered loads as DefaultScalingSpec, with the module pinned and the
// trace measured paced, so the S9 rows reproduce byte-identically where
// the S6 cells ride host-dependent feeder interleaving.
func DefaultSLOSpec() ReplaySpec {
	s6 := DefaultScalingSpec()
	return ReplaySpec{
		ID:        "S9",
		Title:     "Latency SLO: gated sojourn percentiles of the pinned-placement replay",
		Label:     "rho-%.2[2]g/%[1]s",
		TraceNote: "service trace: %d all-hit requests, avg service %v, replayed over %d virtual servers (paced pinned-placement run)",
		Notes: []string{
			"deterministic twin of the S6 poisson column: same pool, seed, arrival traces and offered loads, but paced service measurement and arithmetic replay instead of the live sharded drive",
			"p50/p95/p99 here are CI-gated SLO columns — they reproduce byte-identically, so any regression past the band fails benchdiff",
		},
		Drive:       Drive{Pool: s6.Pool, Pin: s6.Mix, Policy: s6.Policy, Workload: s6.Workload},
		Processes:   []string{s6.Process},
		Rhos:        s6.Rhos,
		MeanService: s6.MeanService,
	}
}

// ReplayRun is one (process, offered load) row of a replay table.
type ReplayRun struct {
	// Run is the paced service drive every row of the table replays.
	Run
	Process string
	Rho     float64
	MeanGap sim.Time

	P50, P95, P99, Max sim.Time
	Makespan           sim.Time
	N                  int

	// Members is the replay's server count (the pool's member count) and
	// AvgService the measured mean of the service trace.
	Members    int
	AvgService sim.Time
}

// SimThroughput is the replay's completion rate in requests per simulated
// second.
func (r ReplayRun) SimThroughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.N) / (float64(r.Makespan) / float64(sim.Second))
}

// ReplayRuns measures the spec's service trace once and replays it under
// every process at each offered load, in offered-load-major order. Offered
// load rho is the fraction of the pool's aggregate service capacity the
// arrival rate consumes. A request's service is its simulated latency;
// the replay's servers are the pool's members, because sibling regions of
// one board serialize on the board's single timeline.
func ReplayRuns(spec ReplaySpec) ([]ReplayRun, error) {
	d := spec.Drive
	d.Shape = Paced
	out, err := d.Run()
	if err != nil {
		return nil, err
	}
	services := make([]sim.Time, len(out.Results))
	var total sim.Time
	for i, r := range out.Results {
		services[i] = r.Latency()
		total += services[i]
	}
	members := out.Pool.Size()
	avg := total / sim.Time(len(services))
	service := spec.MeanService
	if service == 0 {
		service = avg
	}
	var runs []ReplayRun
	for _, rho := range spec.Rhos {
		if rho <= 0 {
			return nil, fmt.Errorf("bench: offered load %v", rho)
		}
		mean := sim.Time(float64(service) / (float64(members) * rho))
		for _, proc := range spec.Processes {
			arr, err := GenArrivals(d.Seed, len(services), proc, mean)
			if err != nil {
				return nil, err
			}
			soj, makespan := ReplayOpenLoop(arr, services, members)
			run := ReplayRun{
				Run:     Run{Label: fmt.Sprintf(spec.Label, proc, rho), Drive: d, Stats: out.Stats},
				Process: proc, Rho: rho, MeanGap: mean,
				Makespan: makespan, N: len(soj),
				Members: members, AvgService: avg,
			}
			for _, l := range soj {
				run.Max = max(run.Max, l)
			}
			pct := Percentiles(soj, 0.50, 0.95, 0.99)
			run.P50, run.P95, run.P99 = pct[0], pct[1], pct[2]
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// ReplayTable renders replay runs as the spec's table: sojourn
// percentiles of the measured service trace per (process, offered load).
// Raw() carries each row's p99 sojourn in femtoseconds.
func ReplayTable(spec ReplaySpec, runs []ReplayRun) *Table {
	t := &Table{ID: spec.ID, Title: spec.Title,
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
		t.Notes = append(t.Notes, fmt.Sprintf(spec.TraceNote, r.N, r.AvgService, r.Members))
	}
	t.Notes = append(t.Notes, spec.Notes...)
	return t
}

// ReplayRecords converts replay runs into the spec's rows, one per
// (process, offered load). The shared fields describe the single paced
// run the whole table replays. The percentiles are deterministic, so a
// deterministic suite's declaration gates them like config_ms.
func ReplayRecords(spec ReplaySpec, runs []ReplayRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		row := r.Row(spec.ID)
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

// Run drives the spec's service trace and replays it.
func (spec ReplaySpec) Run() (*Table, []PlacementRecord, error) {
	runs, err := ReplayRuns(spec)
	if err != nil {
		return nil, nil, err
	}
	return ReplayTable(spec, runs), ReplayRecords(spec, runs), nil
}

// WithN returns the spec replaying an n-request service trace.
func (spec ReplaySpec) WithN(n int) Spec { spec.Drive.N = n; return spec }

package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ArrivalProcesses lists the open-loop arrival generators.
func ArrivalProcesses() []string { return []string{"uniform", "poisson", "bursty"} }

// settle busy-waits until the scheduler has fully drained — no pending
// requests, no executing slot, no speculative stream in flight — the
// reproducibility discipline every paced bench run shares.
func settle(s *sched.Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// burstLen is the bursty process's on-phase length: arrivals come in
// back-to-back groups of this size separated by long off gaps, keeping the
// configured mean rate.
const burstLen = 8

// GenArrivals draws n absolute arrival times for the named open-loop
// process with the given mean inter-arrival gap, from a seeded generator —
// the same (seed, n, process, mean) always yields the same trace.
//
//   - "uniform": fixed gaps (the closed-loop-like baseline)
//   - "poisson": exponential gaps — independent arrivals at rate 1/mean
//   - "bursty": on/off — bursts of burstLen arrivals with tenth-gap
//     spacing, then an off gap restoring the mean rate
func GenArrivals(seed int64, n int, process string, mean sim.Time) ([]sim.Time, error) {
	if n <= 0 || mean <= 0 {
		return nil, fmt.Errorf("bench: bad arrival trace (n=%d mean=%v)", n, mean)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Time, n)
	var now sim.Time
	switch process {
	case "uniform":
		for i := range out {
			out[i] = now
			now += mean
		}
	case "poisson":
		for i := range out {
			out[i] = now
			now += sim.Time(float64(mean) * rng.ExpFloat64())
		}
	case "bursty":
		// Each burst of burstLen arrivals spans (burstLen-1)*mean/10; the
		// off gap brings the average spacing back to mean.
		inBurst := mean / 10
		off := sim.Time(burstLen)*mean - sim.Time(burstLen-1)*inBurst
		for i := range out {
			out[i] = now
			if (i+1)%burstLen == 0 {
				// Jittered off phase so bursts do not phase-lock.
				now += sim.Time(float64(off) * (0.5 + rng.Float64()))
			} else {
				now += inBurst
			}
		}
	default:
		return nil, fmt.Errorf("bench: unknown arrival process %q (have %v)", process, ArrivalProcesses())
	}
	return out, nil
}

// ReplayOpenLoop pushes the (arrival, service) trace through a virtual
// k-server FCFS queue and returns each request's sojourn time (queue wait
// plus service) and the makespan. The per-member simulated-time model
// measures service but not queue wait (a request waiting for a busy member
// costs nothing anywhere); this replay adds the missing queueing dimension
// for latency-percentile reporting. k is the pool's MEMBER count: sibling
// regions of one board serialize on the board's single timeline, so extra
// regions add cache capacity (already baked into the measured service
// times) but never execution parallelism.
func ReplayOpenLoop(arrivals, services []sim.Time, k int) (sojourn []sim.Time, makespan sim.Time) {
	if k < 1 {
		k = 1
	}
	free := make([]sim.Time, k) // next-free time per virtual server
	sojourn = make([]sim.Time, len(arrivals))
	for i, at := range arrivals {
		best := 0
		for j := 1; j < k; j++ {
			if free[j] < free[best] {
				best = j
			}
		}
		start := at
		if free[best] > start {
			start = free[best]
		}
		end := start + services[i]
		free[best] = end
		sojourn[i] = end - at
		if end > makespan {
			makespan = end
		}
	}
	return sojourn, makespan
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// latencies.
func Percentile(lats []sim.Time, q float64) sim.Time {
	return Percentiles(lats, q)[0]
}

// Percentiles returns the nearest-rank quantiles of the latencies, sorting
// once for all requested ranks.
func Percentiles(lats []sim.Time, qs ...float64) []sim.Time {
	out := make([]sim.Time, len(qs))
	if len(lats) == 0 {
		return out
	}
	s := append([]sim.Time(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}

// ServiceTrace drives the spec's seeded workload closed-loop (window 1,
// settled between arrivals) over a fresh planner-backed mincost pool and
// returns each request's service latency in submission order — the
// deterministic per-request costs the open-loop replay feeds on — plus the
// pool's member count (its execution parallelism) and the scheduler stats.
func ServiceTrace(spec PlacementSpec) ([]sim.Time, int, sched.Stats, error) {
	policy, err := sched.PolicyByName("mincost")
	if err != nil {
		return nil, 0, sched.Stats{}, err
	}
	mix, err := sched.ParseMix(spec.Mix)
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
	s := sched.New(p, sched.Options{Batch: spec.Batch, Policy: policy})
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

// ArrivalRun is one (arrival process, offered load) replay of the
// measured service trace: the virtual k-server sojourn percentiles plus
// the single paced run the whole table replays (shared by every row).
type ArrivalRun struct {
	Process string
	Rho     float64
	MeanGap sim.Time

	P50, P95, P99, Max sim.Time
	Makespan           sim.Time
	N                  int

	// Members and AvgService describe the shared service trace; Stats is
	// the paced mincost+planner run it was measured on.
	Members    int
	AvgService sim.Time
	Stats      sched.Stats
}

// SimThroughput is the replay's completion rate in requests per simulated
// second.
func (r ArrivalRun) SimThroughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.N) / (float64(r.Makespan) / float64(sim.Second))
}

// ArrivalRuns measures the spec's service trace once (a paced
// mincost+planner run) and replays it through the virtual k-server queue
// under every arrival process at each offered load. Offered load rho is
// the fraction of the pool's aggregate service capacity the arrival rate
// consumes; the mean inter-arrival gap is avgService/(members*rho). The
// replay is pure arithmetic over the deterministic trace, so the rows
// reproduce exactly.
func ArrivalRuns(spec PlacementSpec, seed int64, rhos []float64) ([]ArrivalRun, error) {
	services, members, stats, err := ServiceTrace(spec)
	if err != nil {
		return nil, err
	}
	var total sim.Time
	for _, s := range services {
		total += s
	}
	avg := total / sim.Time(len(services))
	runs := make([]ArrivalRun, 0, len(rhos)*len(ArrivalProcesses()))
	for _, rho := range rhos {
		mean := sim.Time(float64(avg) / (float64(members) * rho))
		for _, proc := range ArrivalProcesses() {
			arr, err := GenArrivals(seed, len(services), proc, mean)
			if err != nil {
				return nil, err
			}
			soj, makespan := ReplayOpenLoop(arr, services, members)
			run := ArrivalRun{
				Process: proc, Rho: rho, MeanGap: mean,
				Makespan: makespan, N: len(soj),
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
	}
	return runs, nil
}

// ArrivalRecords converts arrival replays into S5 rows, one per (process,
// offered load), labelled like the S6 cells (poisson/rho-0.70) so the two
// latency tables read side by side. The shared fields describe the single
// paced run the whole table replays.
func ArrivalRecords(runs []ArrivalRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		row := PlacementRun{
			Label:   fmt.Sprintf("%s/rho-%.2f", r.Process, r.Rho),
			Policy:  "mincost",
			Planner: true,
			Stats:   r.Stats,
		}.Row("S5")
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

// ArrivalTable renders table S5: latency percentiles of the measured
// service trace under open-loop arrival processes. Raw() carries each
// row's p99 sojourn in femtoseconds. S5 characterizes the queueing of the
// paced service trace; the live open-loop scaling curve is S6
// (ScalingTable), which drives the real sharded scheduler instead of the
// balanced k-server ideal.
func ArrivalTable(spec PlacementSpec, seed int64, rhos []float64) (*Table, error) {
	runs, err := ArrivalRuns(spec, seed, rhos)
	if err != nil {
		return nil, err
	}
	return ArrivalTableFromRuns(runs), nil
}

// ArrivalTableFromRuns renders table S5 from already-computed replays.
func ArrivalTableFromRuns(runs []ArrivalRun) *Table {
	t := &Table{ID: "S5", Title: "Open-loop arrivals: latency percentiles over the measured service trace",
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
			fmt.Sprintf("service trace: %d requests, avg service %v over %d members (paced mincost+planner run)", r.N, r.AvgService, r.Members))
	}
	t.Notes = append(t.Notes,
		"sojourn = queue wait + service through a virtual FCFS replay; the scheduler's own accounting measures service only",
		fmt.Sprintf("bursty arrivals come in groups of %d at a tenth of the mean gap", burstLen))
	return t
}

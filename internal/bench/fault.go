package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// FaultSpec pins the S7 availability evaluation: the S2/S3 seeded mixed
// workload driven Paced over a dual-region pool while a seeded
// fault scenario flips configuration bits between completions and the
// scrub/quarantine/repair loop cleans up. Scenario names a fault.Campaign
// preset; the default sweep reports availability and tail latency against
// the upset rate.
type FaultSpec struct {
	Boards  int
	Regions int
	Workload
	Scenario string
}

// DefaultFaultSpec is the committed S7 configuration: the seeded
// 60-request mixed workload over a 2x2-region pool under the rate sweep.
func DefaultFaultSpec() FaultSpec {
	return FaultSpec{Boards: 2, Regions: 2, Workload: DefaultWorkload(), Scenario: "sweep"}
}

func (spec FaultSpec) pool() pool.Config {
	return pool.Config{Sys64: spec.Boards, Regions: spec.Regions}
}

// FaultScenarios expands the spec's campaign preset against the spec's
// pool geometry. A scratch pool is booted only to measure each region's
// fault space; the replay runs boot their own.
func FaultScenarios(spec FaultSpec) ([]fault.Scenario, error) {
	p, err := pool.New(spec.pool())
	if err != nil {
		return nil, err
	}
	return fault.Campaign(spec.Scenario, spec.Seed, spec.N, fault.PoolSlots(p))
}

// FaultRun is one scenario's outcome: the scheduler stats plus the
// derived availability and latency percentiles.
type FaultRun struct {
	Run
	Scenario fault.Scenario
	// Availability is the fraction of the pool's busy simulated time spent
	// on useful work rather than configuration — visible, speculative, or
	// repair streams all count against it.
	Availability float64
	P50, P99     sim.Time
}

// availability derives the useful-work fraction from the stats.
func availability(st sched.Stats) float64 {
	total := st.Work + st.Config + st.PrefetchConfig + st.RepairConfig
	if total <= 0 {
		return 1
	}
	return float64(st.Work) / float64(total)
}

// RunFault drives the spec's seeded workload Paced under mincost
// placement with dispatch scrubbing on, injecting the scenario's due
// events after each completion and following every injection with a full
// scrub pass. The injection points ride the deterministic completion
// count, so the same (spec, scenario) always produces the same row.
func RunFault(spec FaultSpec, sc fault.Scenario) (FaultRun, error) {
	run := FaultRun{Scenario: sc}
	run.Label = sc.Name + "+scrub"
	cur := sc.Cursor()
	done := 0
	run.Drive = Drive{Pool: spec.pool(), Policy: "mincost", Scrub: true, Workload: spec.Workload, Shape: Paced,
		OnResult: func(p *pool.Pool, s *sched.Scheduler, _ sched.Result) error {
			done++
			due := cur.Due(done)
			for _, e := range due {
				if err := fault.Apply(p, e); err != nil {
					return fmt.Errorf("bench: fault after request %d: %w", done, err)
				}
			}
			if len(due) > 0 {
				s.ScrubAll()
				settle(s)
			}
			return nil
		}}
	out, err := run.Drive.Run()
	if err != nil {
		return run, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	run.Stats = out.Stats
	run.Availability = availability(run.Stats)
	lats := make([]sim.Time, len(out.Results))
	for i, r := range out.Results {
		lats[i] = r.Latency()
	}
	pct := Percentiles(lats, 0.50, 0.99)
	run.P50, run.P99 = pct[0], pct[1]
	return run, nil
}

// FaultRuns executes the spec's whole campaign, one run per scenario.
func FaultRuns(spec FaultSpec) ([]FaultRun, error) {
	scenarios, err := FaultScenarios(spec)
	if err != nil {
		return nil, err
	}
	runs := make([]FaultRun, 0, len(scenarios))
	for _, sc := range scenarios {
		r, err := RunFault(spec, sc)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// FaultTable renders fault runs as table S7: availability and tail
// latency versus upset rate under the scrub/quarantine/repair loop.
// Raw() carries each row's availability.
func FaultTable(runs []FaultRun) *Table {
	t := &Table{ID: "S7", Title: "Availability under injected configuration upsets with readback scrubbing",
		Columns: []string{"scenario", "rate", "injected", "detected", "requeued", "repaired", "availability", "config time", "repair time", "p99 latency"}}
	for _, r := range runs {
		st := r.Stats
		t.AddRow(r.Scenario.Name, fmt.Sprintf("%.2g", r.Scenario.Rate),
			fmt.Sprint(len(r.Scenario.Events)), fmt.Sprint(st.FaultsDetected),
			fmt.Sprint(st.Requeues), fmt.Sprint(st.Repairs),
			fmt.Sprintf("%.3f", r.Availability),
			fmtNS(float64(st.Config)), fmtNS(float64(st.RepairConfig)),
			fmtNS(float64(r.P99)))
		t.rawNS = append(t.rawNS, r.Availability)
	}
	t.Notes = append(t.Notes,
		"rate is the per-completion upset probability; every injected flip lands inside a region band (recoverable by a complete reload)",
		"an upset costs availability (repair streams) and tail latency (requeues), never correctness: all requests complete, the static design stays intact",
		"detected can trail injected: a flip overwritten by the region's next complete stream is healed before any readback sees it")
	return t
}

// FaultRecords converts fault runs into S7 rows.
func FaultRecords(runs []FaultRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		st := r.Stats
		row := r.Row("S7")
		row.FaultsInjected = uint64(len(r.Scenario.Events))
		row.FaultsDetected = st.FaultsDetected
		row.Requeues = st.Requeues
		row.Repairs = st.Repairs
		row.RepairMs = float64(st.RepairConfig.Microseconds()) / 1e3
		row.Availability = r.Availability
		row.P99Ms = float64(r.P99.Microseconds()) / 1e3
		out = append(out, row)
	}
	return out
}

// Run drives the S7 campaign.
func (spec FaultSpec) Run() (*Table, []PlacementRecord, error) {
	runs, err := FaultRuns(spec)
	if err != nil {
		return nil, nil, err
	}
	return FaultTable(runs), FaultRecords(runs), nil
}

// WithN returns the spec driving n requests per scenario.
func (spec FaultSpec) WithN(n int) Spec { spec.N = n; return spec }

package bench

import (
	"fmt"

	"repro/internal/pool"
)

// PlacementSpec pins one seeded scheduler workload on one pool so
// different placement configurations can be compared run for run.
type PlacementSpec struct {
	Pool pool.Config
	Workload
}

// DefaultPlacementSpec is the seeded 60-request mixed workload of the
// placement evaluation: a 2+2 pool under the full module mix.
func DefaultPlacementSpec() PlacementSpec {
	return PlacementSpec{Pool: pool.Config{Sys32: 2, Sys64: 2}, Workload: DefaultWorkload()}
}

// PlacementRuns executes the canonical S2 comparison, every request
// submitted upfront: the PR 1 baseline (lru placement, complete streams
// only), the planner under the same placement, and the planner with
// cost-aware placement.
func PlacementRuns(spec PlacementSpec) ([]Run, error) {
	drive := func(policy string, completeOnly bool) Drive {
		return Drive{Pool: spec.Pool, CompleteOnly: completeOnly, Policy: policy, Workload: spec.Workload, Shape: Upfront}
	}
	return runAll([]Run{
		{Label: "lru+complete-only", Drive: drive("lru", true)},
		{Label: "lru+planner", Drive: drive("lru", false)},
		{Label: "mincost+planner", Drive: drive("mincost", false)},
	})
}

// PlacementTable renders placement runs as table S2: how the
// differential-bitstream planner and cost-aware placement change the
// configuration bill for the same seeded workload. Raw() carries each
// run's total simulated configuration time in femtoseconds, in row order.
func PlacementTable(runs []Run) *Table {
	t := &Table{ID: "S2", Title: "Placement policy and stream planning on the same seeded workload",
		Columns: []string{"configuration", "hits", "misses", "diff", "complete", "config time", "bytes streamed", "busy time"}}
	for _, r := range runs {
		st := r.Stats
		var busy float64
		for _, b := range st.BusyTime {
			busy += float64(b)
		}
		t.AddRow(r.Label,
			fmt.Sprint(st.Hits), fmt.Sprint(st.Misses),
			fmt.Sprint(st.DiffLoads), fmt.Sprint(st.CompleteLoads),
			fmtNS(float64(st.Config)), fmt.Sprintf("%d B", st.BytesStreamed), fmtNS(busy))
		t.rawNS = append(t.rawNS, float64(st.Config))
	}
	if len(runs) > 1 {
		base, best := runs[0].Stats, runs[len(runs)-1].Stats
		if best.Config > 0 && best.BytesStreamed > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s vs %s: %.1fx less simulated configuration time, %.1fx fewer bytes streamed",
				runs[len(runs)-1].Label, runs[0].Label,
				float64(base.Config)/float64(best.Config),
				float64(base.BytesStreamed)/float64(best.BytesStreamed)))
		}
	}
	t.Notes = append(t.Notes,
		"a differential miss streams only the frames that differ from the member's verified resident state (§2.2)")
	return t
}

// ScheduleRecords converts placement runs into S2 rows.
func ScheduleRecords(runs []Run) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Row("S2"))
	}
	return out
}

// Run drives the S2 comparison.
func (spec PlacementSpec) Run() (*Table, []PlacementRecord, error) {
	runs, err := PlacementRuns(spec)
	if err != nil {
		return nil, nil, err
	}
	return PlacementTable(runs), ScheduleRecords(runs), nil
}

// WithN returns the spec driving n requests.
func (spec PlacementSpec) WithN(n int) Spec { spec.N = n; return spec }

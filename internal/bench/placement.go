package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/sched"
)

// PlacementSpec pins one seeded scheduler workload so different placement
// configurations can be compared run-for-run.
type PlacementSpec struct {
	Pool  pool.Config
	Seed  int64
	N     int
	Mix   string
	Batch int
}

// DefaultPlacementSpec is the seeded 60-request mixed workload of the
// placement evaluation: a 2+2 pool under the full module mix.
func DefaultPlacementSpec() PlacementSpec {
	return PlacementSpec{
		Pool:  pool.Config{Sys32: 2, Sys64: 2},
		Seed:  7,
		N:     60,
		Mix:   "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1",
		Batch: 4,
	}
}

// PlacementRun is one placement configuration's aggregate outcome over a
// spec's workload.
type PlacementRun struct {
	Label   string
	Policy  string
	Planner bool
	Stats   sched.Stats
}

// RunPlacement boots a fresh pool, applies the planner mode and placement
// policy, and drives the spec's seeded workload to completion.
func RunPlacement(spec PlacementSpec, policyName string, planner bool) (PlacementRun, error) {
	label := policyName + "+complete-only"
	if planner {
		label = policyName + "+planner"
	}
	run := PlacementRun{Label: label, Policy: policyName, Planner: planner}
	policy, err := sched.PolicyByName(policyName)
	if err != nil {
		return run, err
	}
	mix, err := sched.ParseMix(spec.Mix)
	if err != nil {
		return run, err
	}
	w, err := sched.GenWorkload(spec.Seed, spec.N, mix)
	if err != nil {
		return run, err
	}
	p, err := pool.New(spec.Pool)
	if err != nil {
		return run, err
	}
	p.SetPlanning(planner)
	s := sched.New(p, sched.Options{Batch: spec.Batch, Policy: policy})
	for _, ch := range s.SubmitAll(w) {
		if r := <-ch; r.Err != nil {
			return run, fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err)
		}
	}
	s.Wait()
	run.Stats = s.Stats()
	return run, nil
}

// PlacementRuns executes the canonical comparison on one spec: the PR 1
// baseline (lru placement, complete streams only), the planner under the
// same placement, and the planner with cost-aware placement.
func PlacementRuns(spec PlacementSpec) ([]PlacementRun, error) {
	configs := []struct {
		policy  string
		planner bool
	}{
		{"lru", false},
		{"lru", true},
		{"mincost", true},
	}
	runs := make([]PlacementRun, 0, len(configs))
	for _, c := range configs {
		r, err := RunPlacement(spec, c.policy, c.planner)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// PlacementTable renders placement runs as table S2: how the
// differential-bitstream planner and cost-aware placement change the
// configuration bill for the same seeded workload. Raw() carries each
// run's total simulated configuration time in femtoseconds, in row order.
func PlacementTable(runs []PlacementRun) *Table {
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
func ScheduleRecords(runs []PlacementRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Row("S2"))
	}
	return out
}

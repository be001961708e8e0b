package bench

import (
	"fmt"
)

// PrefetchSpec pins the S3 evaluation: the placement spec's seeded mix
// driven paced, so members regularly sit idle while others compute — the
// gap the prefetch pipeline fills with speculative reconfiguration. An
// upfront drive would keep every member busy and leave nothing to
// overlap.
type PrefetchSpec PlacementSpec

// DefaultPrefetchSpec is the S3 evaluation: the same seeded 60-request
// mixed workload and 2+2 pool as S2.
func DefaultPrefetchSpec() PrefetchSpec { return PrefetchSpec(DefaultPlacementSpec()) }

// PrefetchRuns executes the canonical S3 comparison on one spec: the PR 2
// configuration (mincost placement, differential planner, no prefetch)
// paced identically, then prefetching under both predictors, then the
// prediction-aware placement policy on top.
func PrefetchRuns(spec PrefetchSpec) ([]Run, error) {
	var runs []Run
	for _, c := range []struct{ policy, predictor string }{
		{"mincost", ""},
		{"mincost", "freq"},
		{"mincost", "markov"},
		{"prefetch", "markov"},
	} {
		label := c.policy + "+noprefetch"
		if c.predictor != "" {
			label = c.policy + "+prefetch-" + c.predictor
		}
		runs = append(runs, Run{Label: label, Drive: Drive{Pool: spec.Pool, Policy: c.policy, Predictor: c.predictor,
			Workload: spec.Workload, Shape: Paced}})
	}
	return runAll(runs)
}

// PrefetchTable renders prefetch runs as table S3: how much of the
// baseline's visible configuration time the speculative pipeline hides on
// the same paced workload, and what it costs in wasted speculative bytes.
// Raw() carries each run's visible configuration time in femtoseconds.
func PrefetchTable(runs []Run) *Table {
	t := &Table{ID: "S3", Title: "Prefetch pipeline: visible configuration time on the paced seeded workload",
		Columns: []string{"configuration", "hits", "pf hits", "pf abort", "config time", "hidden config", "bytes streamed", "pf bytes", "pf wasted"}}
	for _, r := range runs {
		st := r.Stats
		t.AddRow(r.Label,
			fmt.Sprint(st.Hits), fmt.Sprint(st.PrefetchHits), fmt.Sprint(st.PrefetchAborted),
			fmtNS(float64(st.Config)), fmtNS(float64(st.HiddenConfig)),
			fmt.Sprintf("%d B", st.BytesStreamed), fmt.Sprintf("%d B", st.PrefetchBytes),
			fmt.Sprintf("%d B", st.PrefetchWasted))
		t.rawNS = append(t.rawNS, float64(st.Config))
	}
	if len(runs) > 1 {
		base := runs[0].Stats
		for _, r := range runs[1:] {
			if base.Config > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s hides %.0f%% of %s's visible configuration time",
					r.Label, 100*(1-float64(r.Stats.Config)/float64(base.Config)), runs[0].Label))
			}
		}
	}
	t.Notes = append(t.Notes,
		"visible config time is what requests wait for; speculative streams run while members would sit idle",
		"an aborted speculative stream only wastes bytes: the §2.2 hazard gate forces the next real load onto a complete stream")
	return t
}

// PrefetchRecords converts prefetch runs into S3 rows. The paced drive is
// one request deep, which the rows record as window 1.
func PrefetchRecords(runs []Run) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		row := r.Row("S3")
		row.Window = 1
		out = append(out, row)
	}
	return out
}

// Run drives the S3 comparison.
func (spec PrefetchSpec) Run() (*Table, []PlacementRecord, error) {
	runs, err := PrefetchRuns(spec)
	if err != nil {
		return nil, nil, err
	}
	return PrefetchTable(runs), PrefetchRecords(runs), nil
}

// WithN returns the spec driving n requests per configuration.
func (spec PrefetchSpec) WithN(n int) Spec { spec.N = n; return spec }

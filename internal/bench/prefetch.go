package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sched"
)

// PrefetchSpec pins the paced workload of the prefetch evaluation: the
// placement spec's seeded mix driven closed-loop with a bounded submission
// window, so members regularly sit idle while others compute — the gap the
// prefetch pipeline fills with speculative reconfiguration. A SubmitAll
// workload would keep every member busy and leave nothing to overlap.
type PrefetchSpec struct {
	PlacementSpec
	// Window is the maximum number of outstanding requests; 1 drives the
	// workload fully sequentially.
	Window int
}

// DefaultPrefetchSpec is the S3 evaluation: the same seeded 60-request
// mixed workload as S2, driven with a window of 1 over the 2+2 pool.
func DefaultPrefetchSpec() PrefetchSpec {
	return PrefetchSpec{PlacementSpec: DefaultPlacementSpec(), Window: 1}
}

// PrefetchRun is one prefetch configuration's outcome over the paced
// workload.
type PrefetchRun struct {
	Label     string
	Policy    string
	Predictor string // "" = prefetch disabled
	Window    int
	Stats     sched.Stats
}

// RunPrefetch boots a fresh planner-backed pool and drives the spec's
// workload closed-loop under the given placement policy, with prefetching
// guided by the named predictor ("" disables prefetch — the visible-config
// baseline the other runs are measured against).
func RunPrefetch(spec PrefetchSpec, policyName, predictorName string) (PrefetchRun, error) {
	label := policyName + "+noprefetch"
	if predictorName != "" {
		label = policyName + "+prefetch-" + predictorName
	}
	run := PrefetchRun{Label: label, Policy: policyName, Predictor: predictorName, Window: spec.Window}
	policy, err := sched.PolicyByName(policyName)
	if err != nil {
		return run, err
	}
	opts := sched.Options{Batch: spec.Batch, Policy: policy}
	if predictorName != "" {
		pred, err := predict.New(predictorName)
		if err != nil {
			return run, err
		}
		opts.Prefetch, opts.Predictor = true, pred
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
	s := sched.New(p, opts)
	window := spec.Window
	if window < 1 {
		window = 1
	}
	// The think-time gap after each completion lets the pool settle
	// (member released, speculative streams landed): requests arrive
	// against settled state, so the run is reproducible (the CI gate
	// diffs these numbers at a tight threshold) and the comparison
	// measures prediction quality rather than host scheduling jitter.
	// Only meaningful fully sequential — with a wider window other
	// requests are still executing by design.
	var firstErr error
	s.SubmitWindowed(w, window, func(r sched.Result) {
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err)
		}
		if window == 1 {
			settle(s)
		}
	})
	// Let the tail speculation land before Wait(): Wait aborts whatever is
	// still in flight at a wall-clock-dependent point, which would make
	// the speculative counters (completed/wasted) vary run to run and
	// churn the committed baseline. Quiescing precedes the error check so
	// an errored run never leaks speculative goroutines to the caller.
	settle(s)
	s.Wait()
	if firstErr != nil {
		return run, firstErr
	}
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			return run, fmt.Errorf("bench: member %d corrupted under %s", m.ID, label)
		}
	}
	run.Stats = s.Stats()
	return run, nil
}

// PrefetchRuns executes the canonical S3 comparison on one spec: the PR 2
// configuration (mincost placement, differential planner, no prefetch)
// paced identically, then prefetching under both predictors, then the
// prediction-aware placement policy on top.
func PrefetchRuns(spec PrefetchSpec) ([]PrefetchRun, error) {
	configs := []struct{ policy, predictor string }{
		{"mincost", ""},
		{"mincost", "freq"},
		{"mincost", "markov"},
		{"prefetch", "markov"},
	}
	runs := make([]PrefetchRun, 0, len(configs))
	for _, c := range configs {
		r, err := RunPrefetch(spec, c.policy, c.predictor)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// PrefetchTable renders prefetch runs as table S3: how much of the
// baseline's visible configuration time the speculative pipeline hides on
// the same paced workload, and what it costs in wasted speculative bytes.
// Raw() carries each run's visible configuration time in femtoseconds.
func PrefetchTable(runs []PrefetchRun) *Table {
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

// PrefetchRecords converts prefetch runs into S3 rows.
func PrefetchRecords(runs []PrefetchRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		st := r.Stats
		row := PlacementRun{Label: r.Label, Policy: r.Policy, Planner: true, Stats: st}.Row("S3")
		row.Window = r.Window
		row.Predictor = r.Predictor
		row.PrefetchHits = st.PrefetchHits
		row.PrefetchAborted = st.PrefetchAborted
		row.PrefetchBytes = st.PrefetchBytes
		row.PrefetchWastedBytes = st.PrefetchWasted
		row.HiddenMs = float64(st.HiddenConfig.Microseconds()) / 1e3
		out = append(out, row)
	}
	return out
}

package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/region"
	"repro/internal/sched"
)

// RegionSpec pins the S4 evaluation: the same seeded mixed workload driven
// over pools of EQUAL TOTAL FABRIC organized at different region
// granularities.
//
// Two comparisons share the table:
//
//   - 4×1-region vs 2×2-region at identical region geometry (four
//     half-width areas, on four single-region boards or two dual-region
//     boards). Under the slot scheduler these pools are isomorphic — the
//     committed rows are byte-identical — so the dual-region pool matches
//     the four-board pool's entire configuration economy on HALF the
//     hardware: per board, throughput doubles.
//
//   - 2×1-full vs 2×2-split on the SAME two boards: the paper's full-width
//     dynamic area used as one region versus column-split into two
//     independently reconfigurable halves. Same fabric budget, twice the
//     residents: the split pool converts module-width slack into extra
//     bitstream-cache entries and cuts visible configuration time — the
//     floorplanning win multi-region fabrics exist for.
//
// The workload is driven closed-loop with a window of 1 and the pool
// settled between arrivals (the S3 discipline), so every row is
// deterministic and the CI gate holds them tight.
type RegionSpec struct {
	// Boards1 is the single-region half-width pool's board count; Boards2
	// the dual-region pool's. Boards1 = 2*Boards2 keeps total fabric equal.
	Boards1 int
	Boards2 int
	Seed    int64
	N       int
	Mix     string
	Batch   int
}

// DefaultRegionSpec is the committed S4 configuration: the seeded
// 60-request mixed workload of S2/S3 over 4×1 / 2×2 / 2×1-full pools.
func DefaultRegionSpec() RegionSpec {
	return RegionSpec{
		Boards1: 4,
		Boards2: 2,
		Seed:    7,
		N:       60,
		Mix:     "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1",
		Batch:   4,
	}
}

// regionPools builds the three equal-fabric pool configurations: four
// single-region boards carrying the dual floorplan's first half-area, two
// dual-region boards carrying both halves, and two boards with the paper's
// full-width single region (the same fabric budget the split carves up).
func regionPools(spec RegionSpec) (single, dual, full pool.Config, err error) {
	fp, err := region.Default(true, 2)
	if err != nil {
		return pool.Config{}, pool.Config{}, pool.Config{}, err
	}
	half := region.Floorplan{Name: "half64", Areas: fp.Areas[:1]}
	for i := 0; i < spec.Boards1; i++ {
		single.Members = append(single.Members, pool.MemberSpec{Is64: true, Floorplan: half})
	}
	for i := 0; i < spec.Boards2; i++ {
		dual.Members = append(dual.Members, pool.MemberSpec{Is64: true, Floorplan: fp})
	}
	full = pool.Config{Sys64: spec.Boards2}
	return single, dual, full, nil
}

// RegionRun is one pool shape's outcome over the paced workload.
type RegionRun struct {
	Label     string
	Boards    int
	Slots     int
	Predictor string // "" = prefetch disabled
	Stats     sched.Stats
}

// RunRegion boots the pool configuration and drives the spec's workload
// closed-loop (window 1, settled between arrivals) under mincost
// placement, with prefetching guided by the named predictor ("" disables
// prefetch).
func RunRegion(spec RegionSpec, cfg pool.Config, label, predictorName string) (RegionRun, error) {
	run := RegionRun{Label: label, Predictor: predictorName}
	policy, err := sched.PolicyByName("mincost")
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
	p, err := pool.New(cfg)
	if err != nil {
		return run, err
	}
	run.Boards = p.Size()
	run.Slots = p.Slots()
	s := sched.New(p, opts)
	var firstErr error
	s.SubmitWindowed(w, 1, func(r sched.Result) {
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err)
		}
		settle(s)
	})
	// Quiesce before looking at the error: a bare return would leak the
	// tail speculation's goroutines into the caller's next run.
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

// RegionRuns executes the canonical S4 comparison: the three pool shapes
// without prefetch, then the two-board shapes with the markov-guided
// speculative pipeline (a dual-region board speculates into one region
// while the sibling holds — or serves — the working set).
func RegionRuns(spec RegionSpec) ([]RegionRun, error) {
	single, dual, full, err := regionPools(spec)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		cfg       pool.Config
		label     string
		predictor string
	}{
		{single, fmt.Sprintf("%dx1-half+mincost", spec.Boards1), ""},
		{dual, fmt.Sprintf("%dx2-half+mincost", spec.Boards2), ""},
		{full, fmt.Sprintf("%dx1-full+mincost", spec.Boards2), ""},
		{full, fmt.Sprintf("%dx1-full+prefetch-markov", spec.Boards2), "markov"},
		{dual, fmt.Sprintf("%dx2-half+prefetch-markov", spec.Boards2), "markov"},
	}
	runs := make([]RegionRun, 0, len(configs))
	for _, c := range configs {
		r, err := RunRegion(spec, c.cfg, c.label, c.predictor)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// RegionTable renders region runs as table S4: what region granularity is
// worth at equal total fabric. Raw() carries each run's visible
// configuration time in femtoseconds.
func RegionTable(runs []RegionRun) *Table {
	t := &Table{ID: "S4", Title: "Region granularity at equal total fabric on the paced seeded workload",
		Columns: []string{"configuration", "boards", "slots", "hits", "misses", "pf hits", "config time", "hidden config", "bytes streamed"}}
	for _, r := range runs {
		st := r.Stats
		t.AddRow(r.Label, fmt.Sprint(r.Boards), fmt.Sprint(r.Slots),
			fmt.Sprint(st.Hits), fmt.Sprint(st.Misses), fmt.Sprint(st.PrefetchHits),
			fmtNS(float64(st.Config)), fmtNS(float64(st.HiddenConfig)),
			fmt.Sprintf("%d B", st.BytesStreamed))
		t.rawNS = append(t.rawNS, float64(st.Config))
	}
	if len(runs) >= 3 {
		a, b, f := runs[0].Stats, runs[1].Stats, runs[2].Stats
		if a.Config > 0 && b.Config > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s matches %s (%v vs %v visible config) on half the boards: equal slots are equal economics, so per-board throughput doubles",
				runs[1].Label, runs[0].Label, b.Config, a.Config))
		}
		if f.Config > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s vs %s on the SAME two boards: splitting the area halves visible config time (%v vs %v) by doubling residents (%d vs %d hits)",
				runs[1].Label, runs[2].Label, b.Config, f.Config, b.Hits, f.Hits))
		}
	}
	t.Notes = append(t.Notes,
		"equal fabric: the half-width regions are the paper's 64-bit dynamic area column-split in two; the full rows use it whole",
		"a dual-region board holds two residents behind separate docks and pays no ICAP traffic when the sibling's neighbour is requested")
	return t
}

// RegionRecords converts region runs into S4 rows.
func RegionRecords(runs []RegionRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		st := r.Stats
		row := PlacementRun{Label: r.Label, Policy: "mincost", Planner: true, Stats: st}.Row("S4")
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

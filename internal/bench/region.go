package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/region"
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
// The workload is driven Paced (the S3 discipline), so every row is
// deterministic and the CI gate holds them tight.
type RegionSpec struct {
	// Boards1 is the single-region half-width pool's board count; Boards2
	// the dual-region pool's. Boards1 = 2*Boards2 keeps total fabric equal.
	Boards1 int
	Boards2 int
	Workload
}

// DefaultRegionSpec is the committed S4 configuration: the seeded
// 60-request mixed workload of S2/S3 over 4×1 / 2×2 / 2×1-full pools.
func DefaultRegionSpec() RegionSpec {
	return RegionSpec{Boards1: 4, Boards2: 2, Workload: DefaultWorkload()}
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

// regionDrive is the S4 drive of one pool shape: the spec's workload,
// paced, under mincost placement, with prefetching guided by the named
// predictor ("" disables prefetch).
func (spec RegionSpec) regionDrive(cfg pool.Config, predictor string) Drive {
	return Drive{Pool: cfg, Policy: "mincost", Predictor: predictor, Workload: spec.Workload, Shape: Paced}
}

// RegionRuns executes the canonical S4 comparison: the three pool shapes
// without prefetch, then the two-board shapes with the markov-guided
// speculative pipeline (a dual-region board speculates into one region
// while the sibling holds — or serves — the working set).
func RegionRuns(spec RegionSpec) ([]Run, error) {
	single, dual, full, err := regionPools(spec)
	if err != nil {
		return nil, err
	}
	return runAll([]Run{
		{Label: fmt.Sprintf("%dx1-half+mincost", spec.Boards1), Drive: spec.regionDrive(single, "")},
		{Label: fmt.Sprintf("%dx2-half+mincost", spec.Boards2), Drive: spec.regionDrive(dual, "")},
		{Label: fmt.Sprintf("%dx1-full+mincost", spec.Boards2), Drive: spec.regionDrive(full, "")},
		{Label: fmt.Sprintf("%dx1-full+prefetch-markov", spec.Boards2), Drive: spec.regionDrive(full, "markov")},
		{Label: fmt.Sprintf("%dx2-half+prefetch-markov", spec.Boards2), Drive: spec.regionDrive(dual, "markov")},
	})
}

// RegionTable renders region runs as table S4: what region granularity is
// worth at equal total fabric. Raw() carries each run's visible
// configuration time in femtoseconds.
func RegionTable(runs []Run) *Table {
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
func RegionRecords(runs []Run) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Row("S4"))
	}
	return out
}

// Run drives the S4 comparison.
func (spec RegionSpec) Run() (*Table, []PlacementRecord, error) {
	runs, err := RegionRuns(spec)
	if err != nil {
		return nil, nil, err
	}
	return RegionTable(runs), RegionRecords(runs), nil
}

// WithN returns the spec driving n requests per configuration.
func (spec RegionSpec) WithN(n int) Spec { spec.N = n; return spec }

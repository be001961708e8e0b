package bench

import "testing"

// testRegionSpec is a reduced S4 spec so the acceptance relations are
// asserted in test time; `make bench` commits the full rows.
func testRegionSpec() RegionSpec {
	s := DefaultRegionSpec()
	s.N = 36
	return s
}

// TestRegionGranularityEconomics asserts the two S4 claims on a reduced
// workload: (1) the 2×2-region pool matches the 4×1-region pool exactly at
// equal fabric — equal slots are equal configuration economics, on half
// the boards — and (2) against the SAME fabric organized as full-width
// single regions, the split pool strictly reduces visible configuration
// time by holding twice the residents.
func TestRegionGranularityEconomics(t *testing.T) {
	spec := testRegionSpec()
	single, dual, full, err := regionPools(spec)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := runAll([]Run{
		{Label: "4x1", Drive: spec.regionDrive(single, "")},
		{Label: "2x2", Drive: spec.regionDrive(dual, "")},
		{Label: "2x1-full", Drive: spec.regionDrive(full, "")},
	})
	if err != nil {
		t.Fatal(err)
	}
	r41, r22, r21 := runs[0], runs[1], runs[2]
	if r41.Slots != 4 || r22.Slots != 4 || r21.Slots != 2 {
		t.Fatalf("slot counts (%d, %d, %d), want (4, 4, 2)", r41.Slots, r22.Slots, r21.Slots)
	}
	if r22.Boards*2 != r41.Boards {
		t.Fatalf("boards (%d, %d), want the dual pool on half the boards", r41.Boards, r22.Boards)
	}
	// Parity: the slot scheduler makes equal slot sets isomorphic, so the
	// dual-region pool reproduces the four-board pool bit for bit.
	a, b := r41.Stats, r22.Stats
	if a.Config != b.Config || a.BytesStreamed != b.BytesStreamed || a.Hits != b.Hits {
		t.Errorf("2x2 (config %v, %d B, %d hits) != 4x1 (config %v, %d B, %d hits): equal fabric should give equal economics",
			b.Config, b.BytesStreamed, b.Hits, a.Config, a.BytesStreamed, a.Hits)
	}
	// Granularity: same boards, same fabric, twice the regions — visible
	// configuration time must drop by a clear margin.
	f := r21.Stats
	if float64(b.Config) > 0.8*float64(f.Config) {
		t.Errorf("split pool visible config %v is not clearly below full-width %v", b.Config, f.Config)
	}
	if b.Hits <= f.Hits {
		t.Errorf("split pool hits %d not above full-width %d", b.Hits, f.Hits)
	}
	if b.BytesStreamed >= f.BytesStreamed {
		t.Errorf("split pool streamed %d B, full-width %d B: doubling residents should stream less", b.BytesStreamed, f.BytesStreamed)
	}
}

// TestRegionTableShape: the S4 renderer carries one raw visible-config
// value per run and the parity/granularity notes.
func TestRegionTableShape(t *testing.T) {
	spec := testRegionSpec()
	_, dual, full, err := regionPools(spec)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := runAll([]Run{
		{Label: "2x1-full+mincost", Drive: spec.regionDrive(full, "")},
		{Label: "2x2-half+mincost", Drive: spec.regionDrive(dual, "")},
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := runs[0], runs[1]
	tb := RegionTable(runs)
	if len(tb.Rows) != 2 || len(tb.Raw()) != 2 {
		t.Fatalf("table has %d rows / %d raw values, want 2 / 2", len(tb.Rows), len(tb.Raw()))
	}
	if tb.Raw()[0] != float64(r1.Stats.Config) || tb.Raw()[1] != float64(r2.Stats.Config) {
		t.Fatalf("raw values %v do not carry the runs' visible config times", tb.Raw())
	}
	recs := RegionRecords(runs)
	if len(recs) != 2 || recs[0].Table != "S4" || recs[0].Label != r1.Label {
		t.Fatalf("records %+v, want S4 rows keyed by the run labels", recs[0])
	}
}

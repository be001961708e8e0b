package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/trace"
)

// CompressSpec pins the S8 evaluation: the same seeded mixed workload
// driven over the dual-region 64-bit pool under each configuration load
// path — complete streams, differentials, compressed containers, and
// compressed containers over the region docks' DMA engines.
//
// The drive is paired: requests are submitted two at a time as one batch
// against a settled pool, so the round-aware gang policy can co-locate a
// round's two misses on sibling regions of one member, where DMA mode
// overlaps their port windows. The pairing and every member timeline are
// deterministic, so the rows gate tight.
type CompressSpec struct {
	// Boards is the dual-region 64-bit member count.
	Boards int
	Workload

	// Trace, when non-nil, records every run's scheduler and load-path
	// events — the paired drive is deterministic, so the recorded trace
	// is too (the CI workflow renders it as a Perfetto artifact).
	Trace *trace.Tracer
}

// DefaultCompressSpec is the committed S8 configuration: the seeded
// 60-request mixed workload of S2/S3/S4 over two dual-region 64-bit
// boards.
func DefaultCompressSpec() CompressSpec {
	return CompressSpec{Boards: 2, Workload: DefaultWorkload()}
}

// CompressRuns executes the canonical S8 comparison, every drive Paired
// over the dual-region pool: the complete-only baseline, the differential
// planner, the compressed load path, and the compressed load path over
// the dock DMA engines with gang placement. The first three rows share
// mincost placement and the CPU load path, so their deltas isolate what
// each stream kind saves on the wire; the last row changes the path (DMA)
// and the pairing (gang), so its delta is the visible-time win of
// overlapping sibling configurations.
func CompressRuns(spec CompressSpec) ([]Run, error) { return runAll(compressConfigs(spec)) }

// compressConfigs lists the labelled S8 drives.
func compressConfigs(spec CompressSpec) []Run {
	drive := Drive{Pool: pool.Config{Sys64: spec.Boards, Regions: 2}, Policy: "mincost", Trace: spec.Trace,
		Workload: spec.Workload, Shape: Paired}
	complete, diff, compressed, dma := drive, drive, drive, drive
	complete.CompleteOnly = true
	compressed.Compress = true
	dma.Policy, dma.Compress, dma.DMA = "gang", true, true
	return []Run{
		{Label: "complete", Drive: complete},
		{Label: "diff", Drive: diff},
		{Label: "compressed", Drive: compressed},
		{Label: "compressed+dma", Drive: dma},
	}
}

// CompressTable renders compress runs as table S8: what the compressed
// container and the DMA load path are worth on the same paired workload.
// Raw() carries each run's visible configuration time in femtoseconds.
func CompressTable(runs []Run) *Table {
	t := &Table{ID: "S8", Title: "Compressed containers and DMA-overlapped configuration on the paired seeded workload",
		Columns: []string{"configuration", "hits", "misses", "diff", "complete", "compressed", "dma", "config time", "overlap config", "bytes streamed", "availability"}}
	for _, r := range runs {
		st := r.Stats
		t.AddRow(r.Label,
			fmt.Sprint(st.Hits), fmt.Sprint(st.Misses),
			fmt.Sprint(st.DiffLoads), fmt.Sprint(st.CompleteLoads), fmt.Sprint(st.CompressedLoads),
			fmt.Sprint(st.DMALoads),
			fmtNS(float64(st.Config)), fmtNS(float64(st.OverlapConfig)),
			fmt.Sprintf("%d B", st.BytesStreamed),
			fmt.Sprintf("%.4f", availability(st)))
		t.rawNS = append(t.rawNS, float64(st.Config))
	}
	if len(runs) >= 4 {
		diff, z, zd := runs[1].Stats, runs[2].Stats, runs[3].Stats
		if diff.BytesStreamed > 0 && z.BytesStreamed > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s vs %s: %.1fx fewer bytes on the wire — frame-level RLE plus keep/dedup ops reference the live region content instead of re-streaming it",
				runs[2].Label, runs[1].Label,
				float64(diff.BytesStreamed)/float64(z.BytesStreamed)))
		}
		if z.Config > 0 && zd.Config > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s vs %s: %.1fx less visible config time — the DMA engine is wire-word-bound (the in-engine decompressor's keep words never transit the port) and sibling windows overlap (%v hidden)",
				runs[3].Label, runs[2].Label,
				float64(z.Config)/float64(zd.Config), zd.OverlapConfig))
		}
	}
	t.Notes = append(t.Notes,
		"the CPU load path charges the port per DECODED word, so compression cuts rows' bytes, not their config time — the DMA rows are where the wire savings become time",
		"compression off keeps every plan byte-identical to the three-kind planner; the compressed rows opt in per pool")
	return t
}

// CompressRecords converts compress runs into S8 rows.
func CompressRecords(runs []Run) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		row := r.Row("S8")
		row.Availability = availability(r.Stats)
		out = append(out, row)
	}
	return out
}

// Run drives the S8 comparison.
func (spec CompressSpec) Run() (*Table, []PlacementRecord, error) {
	runs, err := CompressRuns(spec)
	if err != nil {
		return nil, nil, err
	}
	return CompressTable(runs), CompressRecords(runs), nil
}

// WithN returns the spec driving n requests per configuration.
func (spec CompressSpec) WithN(n int) Spec { spec.N = n; return spec }

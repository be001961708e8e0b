package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/sched"
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
	Seed   int64
	N      int
	Mix    string
	Batch  int

	// Trace, when non-nil, records every run's scheduler and load-path
	// events — the paired drive is deterministic, so the recorded trace
	// is too (the CI workflow renders it as a Perfetto artifact).
	Trace *trace.Tracer
}

// DefaultCompressSpec is the committed S8 configuration: the seeded
// 60-request mixed workload of S2/S3/S4 over two dual-region 64-bit
// boards.
func DefaultCompressSpec() CompressSpec {
	return CompressSpec{
		Boards: 2,
		Seed:   7,
		N:      60,
		Mix:    "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1",
		Batch:  4,
	}
}

// CompressRun is one load-path configuration's outcome over the paired
// workload.
type CompressRun struct {
	Label    string
	Policy   string
	Planner  bool
	Compress bool
	DMA      bool
	Stats    sched.Stats
	// Availability is the useful-work fraction of the pool's busy
	// simulated time (hidden DMA window parts never count against it —
	// they overlapped work or sibling streams by definition).
	Availability float64
}

// RunCompress boots a fresh dual-region pool, applies the load-path
// configuration, and drives the spec's workload in deterministic pairs.
func RunCompress(spec CompressSpec, label, policyName string, planner, compress, dma bool) (CompressRun, error) {
	run := CompressRun{Label: label, Policy: policyName, Planner: planner, Compress: compress, DMA: dma}
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
	p, err := pool.New(pool.Config{Sys64: spec.Boards, Regions: 2})
	if err != nil {
		return run, err
	}
	p.SetPlanning(planner)
	p.SetCompression(compress)
	s := sched.New(p, sched.Options{Batch: spec.Batch, Policy: policy, DMA: dma, Trace: spec.Trace})
	var firstErr error
	for i := 0; i < len(w); i += 2 {
		end := i + 2
		if end > len(w) {
			end = len(w)
		}
		for _, ch := range s.SubmitBatch(w[i:end]) {
			if r := <-ch; r.Err != nil && firstErr == nil {
				firstErr = fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err)
			}
		}
		settle(s)
	}
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
	run.Availability = availability(run.Stats)
	return run, nil
}

// CompressRuns executes the canonical S8 comparison: the complete-only
// baseline, the differential planner, the compressed load path, and the
// compressed load path over the dock DMA engines with gang placement.
// The first three rows share mincost placement and the CPU load path, so
// their deltas isolate what each stream kind saves on the wire; the last
// row changes the path (DMA) and the pairing (gang), so its delta is the
// visible-time win of overlapping sibling configurations.
func CompressRuns(spec CompressSpec) ([]CompressRun, error) {
	configs := []struct {
		label    string
		policy   string
		planner  bool
		compress bool
		dma      bool
	}{
		{"complete", "mincost", false, false, false},
		{"diff", "mincost", true, false, false},
		{"compressed", "mincost", true, true, false},
		{"compressed+dma", "gang", true, true, true},
	}
	runs := make([]CompressRun, 0, len(configs))
	for _, c := range configs {
		r, err := RunCompress(spec, c.label, c.policy, c.planner, c.compress, c.dma)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// CompressTable renders compress runs as table S8: what the compressed
// container and the DMA load path are worth on the same paired workload.
// Raw() carries each run's visible configuration time in femtoseconds.
func CompressTable(runs []CompressRun) *Table {
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
			fmt.Sprintf("%.4f", r.Availability))
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
func CompressRecords(runs []CompressRun) []PlacementRecord {
	out := make([]PlacementRecord, 0, len(runs))
	for _, r := range runs {
		st := r.Stats
		row := PlacementRun{Label: r.Label, Policy: r.Policy, Planner: r.Planner, Stats: st}.Row("S8")
		row.CompressedLoads = st.CompressedLoads
		row.DMALoads = st.DMALoads
		row.OverlapMs = st.OverlapConfig.Microseconds() / 1e3
		row.Availability = r.Availability
		out = append(out, row)
	}
	return out
}

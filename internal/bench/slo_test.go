package bench

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// reducedSLOSpec keeps the S9 shape (pinned placement, poisson arrivals,
// three offered loads) at a depth a unit test can afford.
func reducedSLOSpec() ReplaySpec {
	spec := DefaultSLOSpec()
	spec.Drive.Pool = pool.Config{Sys32: 4}
	spec.Drive.N = 400
	return spec
}

// TestSLORunsShape checks the queueing physics of the replay: percentiles
// are ordered within a row, every sojourn is at least a service time, and
// the saturated row's p99 dominates the underloaded row's.
func TestSLORunsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a paced pool workload")
	}
	runs, err := ReplayRuns(reducedSLOSpec())
	if err != nil {
		t.Fatal(err)
	}
	byRho := map[float64]ReplayRun{}
	for _, r := range runs {
		byRho[r.Rho] = r
		if r.P50 <= 0 || r.P50 > r.P95 || r.P95 > r.P99 || r.P99 > r.Max {
			t.Errorf("%s: percentiles not ordered: p50 %v p95 %v p99 %v max %v", r.Label, r.P50, r.P95, r.P99, r.Max)
		}
		if r.AvgService <= 0 || r.P50 < r.AvgService/2 {
			t.Errorf("%s: p50 %v implausibly below avg service %v", r.Label, r.P50, r.AvgService)
		}
		if r.SimThroughput() <= 0 {
			t.Errorf("%s: nonpositive simulated throughput", r.Label)
		}
		// All-hit pinned placement: the service run must never touch the
		// configuration path.
		if r.Stats.Misses != 0 || r.Stats.Config != 0 || r.Stats.BytesStreamed != 0 {
			t.Errorf("%s: pinned service trace paid config: %d misses, %v config, %d B",
				r.Label, r.Stats.Misses, r.Stats.Config, r.Stats.BytesStreamed)
		}
	}
	lo, hi := byRho[0.25], byRho[4]
	if lo.Label == "" || hi.Label == "" {
		t.Fatalf("missing committed rho rows: %+v", runs)
	}
	if hi.P99 < lo.P99 {
		t.Errorf("saturated p99 %v below underloaded p99 %v", hi.P99, lo.P99)
	}
}

// TestSLORecordWire checks the S9 wire round trip and that the
// percentiles ride as gated metrics — the suite is deterministic, so
// benchdiff holds them to its tight SLO band.
func TestSLORecordWire(t *testing.T) {
	rec := PlacementRecord{
		Table: "S9", Label: "rho-4/poisson", Policy: "lru", Planner: true,
		ArrivalProcess: "poisson", OfferedLoad: 4,
		P50Ms: 0.25, P95Ms: 0.5, P99Ms: 0.75,
		SimThroughputRPS: 123456,
	}
	suite := SuiteOf(rec.Table)
	if !suite.Deterministic {
		t.Fatal("S9 must be declared deterministic")
	}
	values := map[string]float64{}
	for _, e := range HistoryEntries([]PlacementRecord{rec}, "abc1234") {
		values[e.Metric] = e.Value
	}
	for name, want := range map[string]float64{"p50_ms": 0.25, "p95_ms": 0.5, "p99_ms": 0.75} {
		if got, ok := values[rec.Label+"/"+name]; !ok || got != want {
			t.Errorf("metric %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	for _, m := range suite.Metrics {
		if !suite.Gated(m) {
			t.Errorf("S9 %s not gated", m.Name)
		}
	}
	data, err := MarshalRecords([]PlacementRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(rec, back[0]) {
		t.Fatalf("wire round trip:\n in  %+v\n out %+v", rec, back)
	}
}

// TestTraceCompressDeterministic records the S8 compressed+dma drive —
// the densest load path: differential streams, compressed containers and
// DMA-overlapped sibling windows — twice and requires byte-identical
// Chrome exports, plus the span-sum conservation laws against the run's
// own Stats: config spans sum to visible config time, overlap spans to
// the hidden DMA window time, compute spans to work.
func TestTraceCompressDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full pool workloads")
	}
	spec := DefaultCompressSpec()
	spec.N = 24
	var exports [][]byte
	var last sched.Stats
	var lastTr *trace.Tracer
	for i := 0; i < 2; i++ {
		tr := trace.New()
		d := compressConfigs(spec)[3].Drive // compressed+dma
		d.Trace = tr
		out, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, buf.Bytes())
		last, lastTr = out.Stats, tr
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatalf("S8 traced runs differ: %d vs %d bytes", len(exports[0]), len(exports[1]))
	}
	if lastTr.Len() == 0 {
		t.Fatal("traced S8 run emitted no events")
	}

	events := lastTr.Events()
	var config, work, overlap sim.Time
	for member := int32(0); member < int32(spec.Boards); member++ {
		for ri := int32(0); ri < 2; ri++ {
			config += trace.SumDur(events, trace.KindConfig, member, ri)
			work += trace.SumDur(events, trace.KindCompute, member, ri)
			overlap += trace.SumDur(events, trace.KindOverlap, member, ri)
		}
	}
	st := last
	if config != st.Config {
		t.Errorf("config spans sum to %v, Stats.Config %v", config, st.Config)
	}
	if work != st.Work {
		t.Errorf("compute spans sum to %v, Stats.Work %v", work, st.Work)
	}
	if overlap != st.OverlapConfig {
		t.Errorf("overlap spans sum to %v, Stats.OverlapConfig %v", overlap, st.OverlapConfig)
	}
	if st.Config == 0 || st.OverlapConfig == 0 {
		t.Errorf("degenerate DMA drive: config %v overlap %v", st.Config, st.OverlapConfig)
	}
}

package bench

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestGenArrivalsDeterministicAndMonotonic: every process yields a seeded,
// reproducible, non-decreasing trace at roughly the configured mean rate.
func TestGenArrivalsDeterministicAndMonotonic(t *testing.T) {
	const n = 512
	mean := sim.Time(1_000_000_000) // 1 us
	for _, proc := range ArrivalProcesses() {
		a, err := GenArrivals(11, n, proc, mean)
		if err != nil {
			t.Fatalf("%s: %v", proc, err)
		}
		b, err := GenArrivals(11, n, proc, mean)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: trace not reproducible at %d (%v vs %v)", proc, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: arrivals not monotonic at %d", proc, i)
			}
		}
		// The realized mean gap stays within 2x of the configured mean
		// (poisson/bursty jitter, exact for uniform).
		span := float64(a[n-1] - a[0])
		got := span / float64(n-1)
		if got < 0.5*float64(mean) || got > 2*float64(mean) {
			t.Errorf("%s: realized mean gap %.0f fs, configured %d fs", proc, got, mean)
		}
	}
	if _, err := GenArrivals(1, 8, "nope", mean); err == nil {
		t.Fatal("unknown process accepted")
	}
}

// TestReplayOpenLoopQueueing: a 2-server replay of a known trace produces
// hand-checkable sojourn times, and a saturating trace queues.
func TestReplayOpenLoopQueueing(t *testing.T) {
	// Arrivals at 0,0,0 with 10-unit services on 2 servers: the third
	// request waits for the first free server.
	arr := []sim.Time{0, 0, 0}
	svc := []sim.Time{10, 10, 10}
	soj, makespan := ReplayOpenLoop(arr, svc, 2)
	want := []sim.Time{10, 10, 20}
	for i := range want {
		if soj[i] != want[i] {
			t.Fatalf("sojourn[%d] = %v, want %v (all %v)", i, soj[i], want[i], soj)
		}
	}
	if makespan != 20 {
		t.Fatalf("makespan %v, want 20", makespan)
	}
	if p := Percentile(soj, 0.99); p != 20 {
		t.Fatalf("p99 %v, want 20", p)
	}
	if p := Percentile(soj, 0.50); p != 10 {
		t.Fatalf("p50 %v, want 10", p)
	}
}

// reducedArrivalSpec is the S5 replay over a 24-request trace at offered
// loads 0.5 and 0.9.
func reducedArrivalSpec() ReplaySpec {
	spec := DefaultPlacementSpec()
	spec.N = 24
	rs := ArrivalSpec(spec)
	rs.Rhos = []float64{0.5, 0.9}
	return rs
}

// TestArrivalTableShape builds S5 over a small paced trace: one row per
// (load, process), p99 raw values present, and heavier load never improves
// the p99 of the same process.
func TestArrivalTableShape(t *testing.T) {
	tb, _, err := reducedArrivalSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(ArrivalProcesses())
	if tb.ID != "S5" || len(tb.Rows) != wantRows || len(tb.Raw()) != wantRows {
		t.Fatalf("table %s has %d rows / %d raw, want S5 with %d", tb.ID, len(tb.Rows), len(tb.Raw()), wantRows)
	}
	procs := len(ArrivalProcesses())
	for i := 0; i < procs; i++ {
		if tb.Raw()[i] > tb.Raw()[i+procs] {
			t.Errorf("%s: p99 at load 0.5 (%v) exceeds p99 at 0.9 (%v)",
				tb.Rows[i][0], tb.Raw()[i], tb.Raw()[i+procs])
		}
	}
}

// TestArrivalRecords: the S5 rows — one per (process, rho), keyed for the
// history, in table order, carrying the table's p99.
func TestArrivalRecords(t *testing.T) {
	spec := reducedArrivalSpec()
	runs, err := ReplayRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := ReplayRecords(spec, runs)
	tb := ReplayTable(spec, runs)
	if len(recs) != 2*len(ArrivalProcesses()) || len(recs) != len(tb.Rows) {
		t.Fatalf("%d records, %d table rows: want one per (rho, process)", len(recs), len(tb.Rows))
	}
	for i, r := range recs {
		if r.Table != "S5" || !strings.HasPrefix(r.Label, r.ArrivalProcess+"/rho-") || r.Policy != "mincost" {
			t.Fatalf("record %s/%s (%s): want S5 keyed process/rho under mincost", r.Table, r.Label, r.Policy)
		}
		if r.ArrivalProcess == "" || r.P99Ms < r.P50Ms || r.SimThroughputRPS <= 0 {
			t.Errorf("record %s implausible: %+v", r.Label, r)
		}
		if r.ArrivalProcess != tb.Rows[i][0] || r.P99Ms != sim.Time(tb.Raw()[i]).Milliseconds() {
			t.Errorf("record %d (%s, p99 %v ms) does not match table row %v", i, r.Label, r.P99Ms, tb.Rows[i])
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// small shrinks a workload to a quick, single-round cycle that keeps its
// drive, pool and checks.
func small(w workload) workload {
	w.simRounds = 1
	if w.drive == driveOpen {
		w.requests = 400
	} else {
		w.requests = 16
	}
	return w
}

// heldOutSeed is a seed the benchmark was never tuned on.
const heldOutSeed = 90_017

// TestWorkloadsDeterministic runs every workload twice on one seed and
// once on a held-out seed: no request may fail, every outright check must
// pass, and the repeat must reproduce the simulated results, and on the
// paced and paired drives the placement too.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			var digests [2][2]string
			for i := range digests {
				rd, err := w.runRound(1, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkClean(t, w, rd)
				digests[i][0], digests[i][1] = rd.digests()
			}
			if digests[0][1] != digests[1][1] {
				t.Errorf("simulated results differ between identical rounds: %s vs %s", digests[0][1], digests[1][1])
			}
			if digests[0][0] != digests[1][0] {
				if w.drive == driveOpen {
					// Open-loop placement among identical boards follows host
					// timing; only the simulated results are pinned.
					t.Logf("placement differs between identical open-loop rounds: %s vs %s", digests[0][0], digests[1][0])
				} else {
					t.Errorf("placement differs between identical rounds: %s vs %s", digests[0][0], digests[1][0])
				}
			}
			rd, err := w.runRound(heldOutSeed, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, w, rd)
		})
	}
}

func checkClean(t *testing.T, w workload, rd *round) {
	t.Helper()
	for _, r := range rd.results {
		if r.Err != nil {
			t.Errorf("request %d (%s) failed: %v", r.ID, r.Task, r.Err)
		}
	}
	if err := w.checkRound(rd); err != nil {
		t.Error(err)
	}
}

// TestFaultWorkloadUpsets pins that the small fault workload still injects
// upsets, so its checks exercise detection and repair.
func TestFaultWorkloadUpsets(t *testing.T) {
	w, err := workloadByName("heal")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := small(w).runRound(1, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd.upsets() == 0 || rd.stats.FaultsDetected == 0 {
		t.Fatalf("no upsets detected (%d fired)", rd.upsets())
	}
}

// TestReplayMatchesScheduled replays a traced round of every workload
// through the platform calls and requires the same simulated results,
// well-formed spans and a non-empty program trace.
func TestReplayMatchesScheduled(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			sp, tr := newSpanLog(), trace.New()
			rd, err := w.runRound(1, 0, tr, sp)
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, w, rd)
			if tr.Len() == 0 {
				t.Error("traced round recorded no program events")
			}
			rp, err := w.replay(rd, sp)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.check(rd); err != nil {
				t.Error(err)
			}
			if _, err := selfTimes(sp.spans); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReports drives the measured and traced passes end to end on a small
// workload and checks that every declared metric is reported.
func TestReports(t *testing.T) {
	w, err := workloadByName("dma")
	if err != nil {
		t.Fatal(err)
	}
	w = small(w)
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		r := newReport(w, &out)
		defs := endToEnd
		if traced {
			defs = perLayer
			err = r.traced(1, t.TempDir())
		} else {
			err = r.measure(1, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		res := r.result(defs)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %v: correct %v, %d of %d failed:\n%s", traced, res.Correct, res.Failed, res.Attempted, out.String())
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, jw := range spec.Workloads {
		w, err := workloadByName(jw.Name)
		if err != nil {
			t.Error(err)
		} else if w.why != jw.Why {
			t.Errorf("%s: BENCHMARK.json says why %q, the program %q", w.name, jw.Why, w.why)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", c.name, i, m, d)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "child", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "child", Start: 30, End: 60},
		{ID: 3, Parent: 1, Name: "leaf", Start: 15, End: 20},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"root": 50, "child": 55, "leaf": 5}
	for _, lt := range got {
		if lt.Self != want[lt.Name] {
			t.Errorf("%s self = %d, want %d", lt.Name, lt.Self, want[lt.Name])
		}
	}
	spans[3].End = 45 // the leaf now outlives its parent
	if _, err := selfTimes(spans); err == nil || !strings.Contains(err.Error(), "exceeds its parent") {
		t.Errorf("child outside its parent: err = %v", err)
	}
}

func TestPercentileWindow(t *testing.T) {
	var xs []sim.Time
	for i := 1; i <= 400; i++ {
		xs = append(xs, sim.Time(i))
	}
	// Rank 200 (value 200) with sqrt(0.25*400) = 10 neighbours a side.
	if got := percentile(xs, 0.5); got != 200 {
		t.Errorf("p50 = %v, want 200", got)
	}
	// At least one neighbour, clipped at the end of the samples.
	if got := percentile(xs, 1); got != 399 {
		t.Errorf("p100 = %v, want 399", got)
	}
	// p95: rank 380 with ceil(sqrt(19)) = 5 neighbours a side, so the
	// window [375, 385] reaches one of the outliers above rank 384.
	for i := 384; i < 400; i++ {
		xs[i] = 1000
	}
	if got, want := percentile(xs, 0.95), sim.Time((375+376+377+378+379+380+381+382+383+384+1000)/11); got != want {
		t.Errorf("p95 = %v, want %v", got, want)
	}
}

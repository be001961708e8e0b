package bench

import (
	"strings"
	"testing"
)

// TestPrefetchHidesVisibleConfigTime is the S3 acceptance check: on the
// seeded paced workload, prefetching with the markov predictor must hide
// at least 30% of the visible configuration time the PR 2 configuration
// (mincost placement + differential planner, no prefetch) still pays —
// with every request verifying and no member corrupted (the drive fails
// on either, so a hazard-gate violation is a hard test failure).
func TestPrefetchHidesVisibleConfigTime(t *testing.T) {
	spec := DefaultPrefetchSpec()
	runs, err := PrefetchRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The frequency predictor is the stable choice on this mix: the seeded
	// workload draws tasks i.i.d., so there is no transition structure for
	// markov to exploit (it shrinks toward the same frequency estimates,
	// with residual sampling noise).
	base, pref := runs[0], runs[1]
	if base.Drive.Predictor != "" || pref.Drive.Predictor != "freq" {
		t.Fatalf("runs %s, %s: want the no-prefetch baseline, then freq", base.Label, pref.Label)
	}
	bs, ps := base.Stats, pref.Stats
	if bs.Done != uint64(spec.N) || ps.Done != uint64(spec.N) {
		t.Fatalf("incomplete runs: base %d, prefetch %d of %d", bs.Done, ps.Done, spec.N)
	}
	if bs.Config == 0 {
		t.Fatal("baseline has no visible configuration time to hide")
	}
	hidden := 1 - float64(ps.Config)/float64(bs.Config)
	t.Logf("visible config: baseline %v, prefetch %v (%.0f%% hidden); prefetch hits %d, aborted %d, wasted %d B",
		bs.Config, ps.Config, 100*hidden, ps.PrefetchHits, ps.PrefetchAborted, ps.PrefetchWasted)
	if hidden < 0.30 {
		t.Errorf("prefetch hides %.1f%% of visible configuration time, want >= 30%%", 100*hidden)
	}
	if ps.PrefetchHits == 0 || ps.HiddenConfig == 0 {
		t.Errorf("no prefetch hits banked: %+v", ps)
	}
}

// TestPrefetchTableShape checks the S3 artifact: one row per
// configuration, raw visible config times in row order, and the headline
// hiding note.
func TestPrefetchTableShape(t *testing.T) {
	spec := DefaultPrefetchSpec()
	spec.N = 24 // smaller workload: this test checks shape, not magnitude
	runs, err := PrefetchRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(runs))
	}
	if runs[0].Drive.Predictor != "" || runs[0].Stats.PrefetchIssued != 0 {
		t.Fatalf("first run must be the no-prefetch baseline: %+v", runs[0].Label)
	}
	tab := PrefetchTable(runs)
	if tab.ID != "S3" || len(tab.Rows) != 4 || len(tab.Raw()) != 4 {
		t.Fatalf("table shape: id %s, %d rows, %d raw", tab.ID, len(tab.Rows), len(tab.Raw()))
	}
	var sb strings.Builder
	tab.Format(&sb)
	for _, want := range []string{"S3", "mincost+noprefetch", "mincost+prefetch-markov", "prefetch+prefetch-markov", "hides"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("formatted table missing %q:\n%s", want, sb.String())
		}
	}
	recs := PrefetchRecords(runs)
	if len(recs) != 4 || recs[0].Table != "S3" || recs[0].Window != 1 {
		t.Fatalf("records: %+v", recs[:1])
	}
	if recs[2].Predictor != "markov" {
		t.Errorf("record predictor = %q, want markov", recs[2].Predictor)
	}
}

package bench

import "testing"

// TestFaultSweepAvailability drives the S7 rate sweep end to end and
// checks its headline shape: the clean scenario injects nothing, the top
// rate injects and detects faults, every detection is repaired, all
// requests complete, and availability never improves as the upset rate
// rises.
func TestFaultSweepAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("full S7 sweep")
	}
	spec := DefaultFaultSpec()
	runs, err := FaultRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("sweep produced %d runs, want 4", len(runs))
	}
	for i, r := range runs {
		st := r.Stats
		if st.Done != uint64(spec.N) || st.Errors != 0 {
			t.Fatalf("%s: %d done / %d errors, want %d clean completions", r.Scenario.Name, st.Done, st.Errors, spec.N)
		}
		if st.FaultsDetected != st.Repairs {
			t.Fatalf("%s: %d detected != %d repaired", r.Scenario.Name, st.FaultsDetected, st.Repairs)
		}
		if st.PrefetchBytes != st.PrefetchConsumed+st.PrefetchWasted+st.PrefetchPending {
			t.Fatalf("%s: speculative byte conservation broken: %+v", r.Scenario.Name, st)
		}
		if r.Availability <= 0 || r.Availability > 1 {
			t.Fatalf("%s: availability %v outside (0, 1]", r.Scenario.Name, r.Availability)
		}
		if i > 0 && r.Availability > runs[i-1].Availability+1e-9 {
			t.Fatalf("availability improved with upset rate: %s %.4f -> %s %.4f",
				runs[i-1].Scenario.Name, runs[i-1].Availability, r.Scenario.Name, r.Availability)
		}
	}
	clean, top := runs[0], runs[len(runs)-1]
	if n := len(clean.Scenario.Events); n != 0 || clean.Stats.FaultsDetected != 0 {
		t.Fatalf("rate-0 run injected %d / detected %d", n, clean.Stats.FaultsDetected)
	}
	if len(top.Scenario.Events) == 0 || top.Stats.FaultsDetected == 0 {
		t.Fatalf("top-rate run injected %d / detected %d, want fault activity",
			len(top.Scenario.Events), top.Stats.FaultsDetected)
	}
	if top.Stats.RepairConfig == 0 || top.Stats.RepairBytes == 0 {
		t.Fatalf("top-rate run repaired for free: %+v", top.Stats)
	}

	table := FaultTable(runs)
	if table.ID != "S7" || len(table.Rows) != len(runs) || len(table.Raw()) != len(runs) {
		t.Fatalf("table shape: id %q, %d rows, %d raw", table.ID, len(table.Rows), len(table.Raw()))
	}
	recs := FaultRecords(runs)
	if len(recs) != len(runs) {
		t.Fatalf("%d records for %d runs", len(recs), len(runs))
	}
	for i, rec := range recs {
		if rec.Table != "S7" || rec.Label != runs[i].Scenario.Name+"+scrub" {
			t.Fatalf("record %d keyed %s/%s", i, rec.Table, rec.Label)
		}
		if rec.Availability != runs[i].Availability || rec.Repairs != runs[i].Stats.Repairs {
			t.Fatalf("record %d diverges from run: %+v vs %+v", i, rec, runs[i].Stats)
		}
	}
}

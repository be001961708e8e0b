package bench

import "testing"

// TestCompressRunsAcceptance runs the S8 comparison on a reduced spec and
// checks the relations the full benchmark is gated on: the compressed
// load path cuts wire bytes well below the differential planner's, and
// DMA overlap cuts visible configuration time below the CPU load path.
func TestCompressRunsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four full pool workloads")
	}
	spec := DefaultCompressSpec()
	spec.N = 24
	runs, err := CompressRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(runs))
	}
	complete, diff, comp, dma := runs[0].Stats, runs[1].Stats, runs[2].Stats, runs[3].Stats

	if diff.BytesStreamed >= complete.BytesStreamed {
		t.Errorf("diff streamed %d B, not below complete's %d B", diff.BytesStreamed, complete.BytesStreamed)
	}
	// Acceptance: compression cuts wire bytes >=30% below the differential
	// planner on the same workload and placement.
	if 10*comp.BytesStreamed > 7*diff.BytesStreamed {
		t.Errorf("compressed streamed %d B, want <=70%% of diff's %d B", comp.BytesStreamed, diff.BytesStreamed)
	}
	if comp.CompressedLoads == 0 {
		t.Error("compressed row issued no compressed loads")
	}
	if comp.DMALoads != 0 || diff.DMALoads != 0 || complete.DMALoads != 0 {
		t.Error("CPU rows booked DMA loads")
	}

	// Acceptance: the DMA row hides part of each pair's configuration, so
	// its visible config time is below the CPU compressed row's.
	if dma.Config >= comp.Config {
		t.Errorf("compressed+dma visible config %v not below compressed %v", dma.Config, comp.Config)
	}
	if dma.DMALoads == 0 || dma.OverlapConfig == 0 {
		t.Errorf("DMA row: %d DMA loads, %v overlap — want both nonzero", dma.DMALoads, dma.OverlapConfig)
	}
	recs := CompressRecords(runs)
	for i, rec := range recs {
		if rec.Availability <= 0 || rec.Availability > 1 {
			t.Errorf("run %d (%s): availability %v out of range", i, rec.Label, rec.Availability)
		}
	}
	// The DMA row does the same work with less visible configuration, so
	// its availability is at least the CPU compressed row's.
	if recs[3].Availability < recs[2].Availability {
		t.Errorf("compressed+dma availability %.4f below compressed %.4f",
			recs[3].Availability, recs[2].Availability)
	}

	for i, rec := range recs {
		if rec.Table != "S8" || rec.Label != runs[i].Label {
			t.Errorf("record %d keyed %s/%s, want S8/%s", i, rec.Table, rec.Label, runs[i].Label)
		}
	}
	if recs[3].OverlapMs <= 0 || recs[3].DMALoads == 0 {
		t.Errorf("dma record: overlap %.3f ms, %d DMA loads", recs[3].OverlapMs, recs[3].DMALoads)
	}
}

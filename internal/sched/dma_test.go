package sched

import (
	"testing"

	"repro/internal/tasks"
)

// pairWorkload is the deterministic paired drive: rounds of two distinct
// cold modules submitted as one batch against a quiesced scheduler, so the
// gang policy's pairing decision is reproducible.
func pairWorkload(rounds int) [][]tasks.Runner {
	out := make([][]tasks.Runner, 0, rounds)
	a := []tasks.Runner{
		tasks.JenkinsRun{Seed: 1, Len: 256, InitVal: 1},
		tasks.BrightnessRun{Seed: 2, N: 256, Delta: 9},
		tasks.PatternRun{Seed: 3, W: 32, H: 16, Threshold: 56},
	}
	b := []tasks.Runner{
		tasks.FadeRun{Seed: 4, N: 256, F: 33},
		tasks.BlendRun{Seed: 5, N: 256},
		tasks.SHA1Run{Seed: 6, Len: 128},
	}
	for i := 0; i < rounds; i++ {
		out = append(out, []tasks.Runner{a[i%len(a)], b[(i+1)%len(b)]})
	}
	return out
}

func runPaired(t *testing.T, s *Scheduler, rounds int) {
	t.Helper()
	for _, pair := range pairWorkload(rounds) {
		for _, r := range collect(t, s.SubmitBatch(pair)) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Task, r.Err)
			}
		}
		quiesce(t, s)
	}
	s.Wait()
}

// TestDMAGangOverlap: in DMA mode with the gang policy, a batch of two
// cold misses lands on sibling regions of one member, their port windows
// open together, and the overlapped configuration shows up as
// OverlapConfig instead of request latency.
func TestDMAGangOverlap(t *testing.T) {
	p := pool64x2(t, 2)
	gang, err := PolicyByName("gang")
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{DMA: true, Policy: gang})
	pair := pairWorkload(1)[0]
	res := collect(t, s.SubmitBatch(pair))
	s.Wait()
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("errors: %v / %v", res[0].Err, res[1].Err)
	}
	if res[0].Member != res[1].Member || res[0].Region == res[1].Region {
		t.Fatalf("gang did not pair sibling regions: (%d,%d) and (%d,%d)",
			res[0].Member, res[0].Region, res[1].Member, res[1].Region)
	}
	st := s.Stats()
	if st.DMALoads != 2 {
		t.Errorf("DMALoads = %d, want 2", st.DMALoads)
	}
	if st.OverlapConfig == 0 {
		t.Errorf("no overlapped configuration time: %+v / %+v", res[0].Report, res[1].Report)
	}
	// The overlapped window part never shows up as visible config time.
	total := res[0].Report.Config + res[0].Report.ConfigHidden +
		res[1].Report.Config + res[1].Report.ConfigHidden
	if st.Config+st.OverlapConfig != total {
		t.Errorf("Config %v + OverlapConfig %v != window total %v", st.Config, st.OverlapConfig, total)
	}
}

// TestDMAByteConservation: wire bytes booked by the scheduler equal the
// bytes the members' own configuration-port counters saw, DMA or not —
// the accounting law the CPU path already obeys.
func TestDMAByteConservation(t *testing.T) {
	for _, dma := range []bool{false, true} {
		p := pool64x2(t, 2)
		gang, _ := PolicyByName("gang")
		s := New(p, Options{DMA: dma, Policy: gang})
		runPaired(t, s, 6)
		st := s.Stats()
		var member uint64
		for _, m := range p.Members() {
			member += m.Sys.Status().StreamedBytes
		}
		if st.BytesStreamed != member {
			t.Errorf("dma=%v: scheduler booked %d B, members streamed %d B", dma, st.BytesStreamed, member)
		}
		if dma && st.DMALoads == 0 {
			t.Error("no DMA loads in DMA mode")
		}
		if !dma && (st.DMALoads != 0 || st.OverlapConfig != 0) {
			t.Errorf("CPU mode booked DMA counters: %d loads, %v overlap", st.DMALoads, st.OverlapConfig)
		}
	}
}

// TestDMADeterministic: two fresh pools driven by the identical paired
// workload produce identical aggregate statistics — the property the S8
// benchmark rows rely on.
func TestDMADeterministic(t *testing.T) {
	run := func() Stats {
		p := pool64x2(t, 2)
		p.SetCompression(true)
		gang, _ := PolicyByName("gang")
		s := New(p, Options{DMA: true, Policy: gang, Batch: 2})
		runPaired(t, s, 8)
		return s.Stats()
	}
	a, b := run(), run()
	if a.Config != b.Config || a.Work != b.Work || a.BytesStreamed != b.BytesStreamed ||
		a.OverlapConfig != b.OverlapConfig || a.Hits != b.Hits || a.Misses != b.Misses ||
		a.DMALoads != b.DMALoads || a.CompressedLoads != b.CompressedLoads {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
	if a.CompressedLoads == 0 {
		t.Error("compression on but no compressed loads")
	}
	if a.Errors != 0 {
		t.Errorf("errors: %d", a.Errors)
	}
}

// TestDMAPairFasterThanSerial: under identical gang placement, turning on
// DMA moves the overlapped part of each pair's configuration off the
// visible path — same bytes, less visible config time. This is the
// wall-clock win S8 measures, reproduced at test scale.
func TestDMAPairFasterThanSerial(t *testing.T) {
	run := func(dma bool) Stats {
		p := pool64x2(t, 2)
		gang, _ := PolicyByName("gang")
		s := New(p, Options{DMA: dma, Policy: gang})
		runPaired(t, s, 6)
		return s.Stats()
	}
	serial, overlapped := run(false), run(true)
	if got, want := overlapped.BytesStreamed, serial.BytesStreamed; got != want {
		t.Fatalf("placement diverged: %d B streamed with DMA, %d without", got, want)
	}
	if overlapped.Config >= serial.Config {
		t.Errorf("visible config with DMA %v not below CPU path %v "+
			"(overlap %v)", overlapped.Config, serial.Config, overlapped.OverlapConfig)
	}
	if overlapped.OverlapConfig == 0 {
		t.Error("no overlapped configuration time")
	}
}

// TestDMAScrubCompose: scrub-on-dispatch and DMA loads run together on the
// one scheduler runner — each assignment is scrubbed just before its head
// Begins, so the paired drive keeps its overlapped port windows while
// every dispatch is verified. An upset planted under DMA mode is caught by
// the dispatch scrub, the request is requeued and served from a healthy
// slot, and the background repair returns the faulted slot to service.
func TestDMAScrubCompose(t *testing.T) {
	p := pool64x2(t, 2)
	gang, err := PolicyByName("gang")
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{DMA: true, Scrub: true, Policy: gang})
	streamed := func() uint64 {
		var b uint64
		for _, m := range p.Members() {
			b += m.Sys.Status().StreamedBytes
		}
		return b
	}
	runPaired(t, s, 6)
	st := s.Stats()
	if st.DMALoads == 0 || st.OverlapConfig == 0 || st.ScrubPasses == 0 {
		t.Fatalf("DMALoads %d, OverlapConfig %v, ScrubPasses %d: want all positive",
			st.DMALoads, st.OverlapConfig, st.ScrubPasses)
	}
	if member := streamed(); st.BytesStreamed != member {
		t.Fatalf("scheduler booked %d B, members streamed %d B", st.BytesStreamed, member)
	}

	warm := <-s.Submit(tasks.JenkinsRun{Seed: 7, Len: 256, InitVal: 3})
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	quiesce(t, s)
	if err := p.Members()[warm.Member].Sys.InjectFaultOn(warm.Region, 1, 1, 7); err != nil {
		t.Fatal(err)
	}
	// Dispatched to its corrupted resident slot, the request is bounced by
	// the dispatch scrub and runs elsewhere.
	r := <-s.Submit(tasks.JenkinsRun{Seed: 8, Len: 256, InitVal: 3})
	if r.Err != nil {
		t.Fatalf("requeued request failed: %v", r.Err)
	}
	if r.Member == warm.Member && r.Region == warm.Region {
		t.Fatalf("request ran on the faulted slot (%d,%d)", r.Member, r.Region)
	}
	quiesce(t, s)
	s.Wait()
	st = s.Stats()
	if st.FaultsDetected != 1 || st.Requeues != 1 || st.Repairs != 1 {
		t.Fatalf("detected %d / requeues %d / repairs %d, want 1 / 1 / 1",
			st.FaultsDetected, st.Requeues, st.Repairs)
	}
	if st.Errors != 0 || st.Done != st.Requests {
		t.Fatalf("errors %d, done %d of %d: want every request clean", st.Errors, st.Done, st.Requests)
	}
	if member := streamed(); st.BytesStreamed+st.RepairBytes != member {
		t.Fatalf("scheduler booked %d B + %d B of repairs, members streamed %d B",
			st.BytesStreamed, st.RepairBytes, member)
	}
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			t.Fatal("static design corrupted")
		}
	}
}

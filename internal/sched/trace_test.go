package sched

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// drainTest busy-waits for a fully drained scheduler, like the bench
// suites' pacing discipline.
func drainTest(s *Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// tracedPacedDrive runs the deterministic paced drive the trace tests
// share — a mixed seeded workload, window 1, settled between arrivals —
// and returns the final stats and the pool it ran on (Options.Trace is
// nil when tr is nil).
func tracedPacedDrive(t *testing.T, tr *trace.Tracer) (Stats, *pool.Pool) {
	t.Helper()
	mix, err := ParseMix("jenkins=2,brightness=1,fade=2,blend=1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenWorkload(7, 24, mix)
	if err != nil {
		t.Fatal(err)
	}
	p := pool32(t, 2)
	s := New(p, Options{Batch: 1, Trace: tr})
	submitWindowed(s, w, 1, func(r Result) {
		if r.Err != nil {
			t.Errorf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
		drainTest(s)
	})
	s.Wait()
	return s.Stats(), p
}

// TestTraceDeterministicPacedRuns drives the identical paced workload
// twice with tracing on: the exported Chrome trace-event JSON must be
// byte-identical — the reproducibility property that lets traced runs
// (and the S9 SLO suite built on the same clock) gate in CI.
func TestTraceDeterministicPacedRuns(t *testing.T) {
	var runs [][]byte
	for i := 0; i < 2; i++ {
		tr := trace.New()
		tracedPacedDrive(t, tr)
		if tr.Len() == 0 {
			t.Fatal("traced run emitted no events")
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, buf.Bytes())
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("paced runs traced differently: %d vs %d bytes", len(runs[0]), len(runs[1]))
	}
}

// TestTraceConservationDispatch checks the span-sum conservation law on
// the request path: summed over every (member, region) track, the config
// spans equal Stats.Config exactly and the compute spans equal
// Stats.Work — the trace is the accounting, not an approximation of it.
func TestTraceConservationDispatch(t *testing.T) {
	tr := trace.New()
	st, p := tracedPacedDrive(t, tr)
	events := tr.Events()
	var config, work sim.Time
	for _, m := range p.Members() {
		for ri := 0; ri < m.Sys.NumRegions(); ri++ {
			config += trace.SumDur(events, trace.KindConfig, int32(m.ID), int32(ri))
			work += trace.SumDur(events, trace.KindCompute, int32(m.ID), int32(ri))
		}
	}
	if st.Config == 0 || st.Work == 0 {
		t.Fatalf("degenerate drive: config %v work %v", st.Config, st.Work)
	}
	if config != st.Config {
		t.Fatalf("config spans sum to %v, Stats.Config %v", config, st.Config)
	}
	if work != st.Work {
		t.Fatalf("compute spans sum to %v, Stats.Work %v", work, st.Work)
	}
}

// TestTraceDisabledMatchesUntraced reruns the paced drive with tracing
// off and on: the scheduler's simulated accounting must be identical —
// tracing observes the run, it never perturbs placement or time.
func TestTraceDisabledMatchesUntraced(t *testing.T) {
	off, _ := tracedPacedDrive(t, nil)
	on, _ := tracedPacedDrive(t, trace.New())
	if off.Config != on.Config || off.Work != on.Work ||
		off.BytesStreamed != on.BytesStreamed ||
		off.Hits != on.Hits || off.Misses != on.Misses ||
		off.Done != on.Done || off.Errors != on.Errors {
		t.Fatalf("stats diverge with tracing on:\noff %+v\non  %+v", off, on)
	}
}

// TestTraceDisabledZeroOverheadDispatch is the benchmark assertion
// guarding the hot path: the exact nil-check guard the dispatch and
// record paths use, plus a nil-receiver Emit, must allocate nothing and
// construct no event. A regression here (an unconditional Event build, a
// sink behind the nil tracer) fails the assertion immediately.
func TestTraceDisabledZeroOverheadDispatch(t *testing.T) {
	s := New(pool32(t, 1), Options{}) // Trace nil: the default
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr := s.opts.Trace; tr != nil {
				tr.Emit(trace.Event{Ts: 0, Kind: trace.KindDispatch})
			}
			s.opts.Trace.Emit(trace.Event{Kind: trace.KindComplete, Name: "noop"})
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("disabled-trace dispatch guard allocates %d/op, want 0", a)
	}
	s.Wait()
}

package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Workload is a seeded request stream: N requests drawn from Mix under
// Seed, dispatched in same-module batches of up to Batch.
type Workload struct {
	Seed  int64
	N     int
	Mix   string
	Batch int
}

// DefaultWorkload is the seeded 60-request mixed workload the S2, S3, S4,
// S5, S7 and S8 suites share.
func DefaultWorkload() Workload {
	return Workload{
		Seed:  7,
		N:     60,
		Mix:   "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1",
		Batch: 4,
	}
}

// Shape is how a drive submits its workload to the scheduler.
type Shape int

const (
	// Upfront submits the whole workload at once: placement follows
	// whichever member finishes first (S2, fpgad's default).
	Upfront Shape = iota
	// Paced submits one request at a time and settles the pool after
	// every completion, so each request arrives against settled state and
	// the run reproduces exactly (S3, S4, S7 and the S5/S9 service traces).
	Paced
	// Windowed keeps Window requests outstanding, closed-loop, without
	// settling (fpgad -window).
	Windowed
	// Paired submits the workload two requests at a time through one
	// SubmitBatch round each and settles after every pair, so a
	// round-aware policy can gang a pair onto sibling regions (S8).
	Paired
	// OpenLoop stamps every request with its Arrivals entry and submits
	// back-to-back through SubmitAt from Feeders striped feeders, never
	// waiting for completions (S6, fpgad -rate).
	OpenLoop
)

// Drive is one seeded scheduler run: the pool it boots, how the pool and
// scheduler are configured, the workload and how it is submitted.
type Drive struct {
	Pool pool.Config
	// CompleteOnly turns the differential planner off (every miss streams
	// a complete bitstream); Compress adds the compressed stream kind.
	CompleteOnly bool
	Compress     bool
	// Pin, when set, loads this module into every slot before the drive
	// starts, so every request of a Pin-only mix is a cache hit.
	Pin string

	// Policy names the placement policy ("" = lru) and Predictor the
	// prefetch predictor ("" = no prefetch). Both are built per run:
	// predictors learn from the stream they see.
	Policy    string
	Predictor string
	Shards    int
	Scrub     bool
	DMA       bool
	Trace     *trace.Tracer

	Workload
	Shape Shape
	// Window is a Windowed drive's outstanding-request bound.
	Window int
	// Feeders (at least one) and Arrivals (one stamp per request) shape an
	// OpenLoop drive.
	Feeders  int
	Arrivals []sim.Time

	// OnResult, when set, sees every successful result in submission
	// order as the drive collects it — after the settle of a Paced drive —
	// with the drive's pool and scheduler at hand (fault injection, scrub
	// passes, per-request reports). An error ends the drive.
	OnResult func(p *pool.Pool, s *sched.Scheduler, r sched.Result) error
}

// Outcome is what a drive measured.
type Outcome struct {
	Stats sched.Stats
	// Results holds every request's result in submission order.
	Results []sched.Result
	// Elapsed is the host time from the first submission to the quiesced
	// pool.
	Elapsed time.Duration
	// Pool is the drive's pool, quiesced.
	Pool *pool.Pool
}

// SetupError marks a drive that failed before submitting any request: an
// unknown policy or predictor, a bad mix, workload, pool or arrival trace,
// or a pin that would not load.
type SetupError struct{ Err error }

func (e SetupError) Error() string { return e.Err.Error() }
func (e SetupError) Unwrap() error { return e.Err }

// Run boots a fresh pool, drives the workload through a new scheduler and
// checks the run: it fails on the first request error and when any
// member's static design ends up corrupted. It always settles the pool
// and waits for the scheduler before returning, errors included, so a
// failed run leaks no speculative or repair goroutine into the next one.
func (d Drive) Run() (Outcome, error) {
	var out Outcome
	setup := func(err error) (Outcome, error) { return out, SetupError{err} }
	policy, err := sched.PolicyByName(d.Policy)
	if err != nil {
		return setup(err)
	}
	opts := sched.Options{Batch: d.Batch, Policy: policy, Shards: d.Shards, Scrub: d.Scrub, DMA: d.DMA, Trace: d.Trace}
	if d.Predictor != "" {
		pred, err := predict.New(d.Predictor)
		if err != nil {
			return setup(err)
		}
		opts.Prefetch, opts.Predictor = true, pred
	}
	mix, err := sched.ParseMix(d.Mix)
	if err != nil {
		return setup(err)
	}
	w, err := sched.GenWorkload(d.Seed, d.N, mix)
	if err != nil {
		return setup(err)
	}
	if d.Shape == OpenLoop && len(d.Arrivals) != len(w) {
		return setup(fmt.Errorf("bench: %d arrival stamps for %d requests", len(d.Arrivals), len(w)))
	}
	p, err := pool.New(d.Pool)
	if err != nil {
		return setup(err)
	}
	p.SetPlanning(!d.CompleteOnly)
	p.SetCompression(d.Compress)
	if d.Pin != "" {
		for _, m := range p.Members() {
			for ri := 0; ri < m.Sys.NumRegions(); ri++ {
				if _, err := m.Sys.LoadModuleOn(ri, d.Pin); err != nil {
					return setup(fmt.Errorf("bench: pin member %d region %d: %w", m.ID, ri, err))
				}
			}
		}
	}
	s := sched.New(p, opts)
	out.Pool = p
	out.Results = make([]sched.Result, 0, len(w))
	collect := func(r sched.Result) error {
		if r.Err != nil {
			return fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err)
		}
		out.Results = append(out.Results, r)
		if d.OnResult != nil {
			return d.OnResult(p, s, r)
		}
		return nil
	}
	if d.Shape == OpenLoop {
		// Collect the boot and pin garbage now so the timed drive does not
		// pay another run's GC debt.
		runtime.GC()
	}
	start := time.Now()
	switch d.Shape {
	case Upfront, Paced, Windowed:
		// Upfront is a window as deep as the workload; Paced a window of
		// one with a settle before each collection.
		window := d.Window
		switch d.Shape {
		case Upfront:
			window = len(w)
		case Paced:
			window = 1
		}
		if window < 1 {
			window = 1
		}
		var inflight []<-chan sched.Result
		next := func() error {
			r := <-inflight[0]
			inflight = inflight[1:]
			if d.Shape == Paced {
				settle(s)
			}
			return collect(r)
		}
		for _, t := range w {
			if len(inflight) == window {
				if err = next(); err != nil {
					break
				}
			}
			inflight = append(inflight, s.Submit(t))
		}
		for err == nil && len(inflight) > 0 {
			err = next()
		}
	case Paired:
		for i := 0; i < len(w) && err == nil; i += 2 {
			for _, ch := range s.SubmitBatch(w[i:min(i+2, len(w))]) {
				if err == nil {
					err = collect(<-ch)
				}
			}
			settle(s)
		}
	case OpenLoop:
		feeders := max(d.Feeders, 1)
		chs := make([]<-chan sched.Result, len(w))
		var fwg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			fwg.Add(1)
			go func(f int) {
				defer fwg.Done()
				// Striped: each feeder submits its slice of the trace in
				// increasing-arrival order, so the merged stream is
				// arrival-ordered up to feeder interleaving.
				for i := f; i < len(w); i += feeders {
					chs[i] = s.SubmitAt(w[i], d.Arrivals[i])
				}
			}(f)
		}
		fwg.Wait()
		for _, ch := range chs {
			if err = collect(<-ch); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("bench: unknown drive shape %d", d.Shape)
	}
	// Let the tail speculation land before Wait: Wait aborts whatever is
	// still in flight at a host-timing-dependent point, which would make
	// the speculative counters vary run to run.
	settle(s)
	s.Wait()
	out.Elapsed = time.Since(start)
	if err != nil {
		return out, err
	}
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			return out, fmt.Errorf("bench: member %d (%s): static design corrupted", m.ID, m.System)
		}
	}
	out.Stats = s.Stats()
	return out, nil
}

// settle busy-waits until the scheduler has fully drained — no pending
// requests, no executing slot, no speculative stream in flight — the
// reproducibility discipline every paced drive shares.
func settle(s *sched.Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// Run is one labelled drive of a suite and what its table and rows need
// of the outcome.
type Run struct {
	Label string
	Drive Drive
	Stats sched.Stats
	// Boards and Slots are the booted pool's member and region counts.
	Boards, Slots int
}

// runAll drives each labelled configuration on a fresh pool, in order.
func runAll(runs []Run) ([]Run, error) {
	for i := range runs {
		out, err := runs[i].Drive.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", runs[i].Label, err)
		}
		runs[i].Stats = out.Stats
		runs[i].Boards, runs[i].Slots = out.Pool.Size(), out.Pool.Slots()
	}
	return runs, nil
}

// Spec is one suite's runnable configuration. Suites declares the
// committed Spec of every suite, so one loop can drive any of them.
type Spec interface {
	// Run drives every configuration of the suite and returns its table
	// and wire rows.
	Run() (*Table, []PlacementRecord, error)
	// WithN returns the spec driving n requests per configuration.
	WithN(n int) Spec
}

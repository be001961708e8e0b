package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// round is one set-up plus one drive of a workload's requests on a fresh
// pool.
type round struct {
	traffic, data int64 // seeds (see workload.roundSeeds)

	setup   time.Duration // pool boot, pins and scheduler construction
	poolNew time.Duration // the pool.New part of setup
	run     time.Duration // first submission to last result

	// allocBytes and gcs are the Go heap allocation and GC cycles of the
	// run phase.
	allocBytes uint64
	gcs        uint32

	reqs     []tasks.Runner
	arrivals []sim.Time
	results  []sched.Result // indexed by request ID - 1
	stats    sched.Stats
	pins     []pinLoad
	scenario fault.Scenario
	injected uint64 // upsets the members report applied
}

// pinLoad is one set-up configuration of a slot.
type pinLoad struct {
	member, region int
	module         string
	bytes          int
	time           sim.Time
}

// settle waits until the scheduler has no request, stream, scrub or repair
// in flight.
func settle(s *sched.Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// setupPool boots the workload's pool and pins its modules into the slots.
// It also returns how long pool.New took.
func (w workload) setupPool(sp *spanLog, parent int) (*pool.Pool, []pinLoad, time.Duration, error) {
	id := sp.begin("pool.New", parent, 0)
	t0 := time.Now()
	p, err := pool.New(w.pool)
	boot := time.Since(t0)
	sp.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	p.SetCompression(w.compress)
	var pins []pinLoad
	if len(w.pins) > 0 {
		for _, m := range p.Members() {
			for ri := 0; ri < m.Sys.NumRegions(); ri++ {
				mod := w.pins[len(pins)%len(w.pins)]
				id := sp.begin("platform.LoadModuleOn", parent, 0)
				rep, err := m.Sys.LoadModuleOn(ri, mod)
				sp.end(id)
				if err != nil {
					return nil, nil, 0, fmt.Errorf("pin %s on member %d region %d: %w", mod, m.ID, ri, err)
				}
				pins = append(pins, pinLoad{member: m.ID, region: ri, module: mod, bytes: rep.Bytes, time: rep.Time})
			}
		}
	}
	return p, pins, boot, nil
}

// runRound sets up a fresh pool and drives the round's requests through
// the scheduler. tr, when set, records the program's own simulated-time
// trace; sp, when set, records the benchmark's host-time spans.
func (w workload) runRound(seed int64, r int, tr *trace.Tracer, sp *spanLog) (*round, error) {
	traffic, data := w.roundSeeds(seed, r)
	rd := &round{traffic: traffic, data: data, reqs: w.genRequests(traffic, data)}
	if w.drive == driveOpen {
		rd.arrivals = w.genArrivals(data, len(rd.reqs))
	}
	policy, err := sched.PolicyByName(w.policy)
	if err != nil {
		return nil, err
	}

	// Start every round from a collected heap, so the previous round's
	// pool is not still resident while this one boots.
	runtime.GC()
	root := sp.begin("setup", -1, 0)
	t0 := time.Now()
	p, pins, boot, err := w.setupPool(sp, root)
	if err != nil {
		return nil, err
	}
	s := sched.New(p, sched.Options{Batch: w.batch, Policy: policy, Scrub: w.scrub,
		Shards: w.shards, DMA: w.dma, Trace: tr})
	rd.setup = time.Since(t0)
	sp.end(root)
	rd.poolNew, rd.pins = boot, pins

	if w.upsetRate > 0 {
		rd.scenario = fault.Generate(w.name, traffic, w.maxRequests(), w.upsetRate, fault.PoolSlots(p))
	}

	// Boot garbage belongs to set-up: collect it before the timed drive.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root = sp.begin("run", -1, 0)
	t1 := time.Now()
	rd.results, err = w.driveRequests(s, p, rd, sp, root)
	rd.run = time.Since(t1)
	sp.end(root)
	runtime.ReadMemStats(&after)
	rd.allocBytes = after.TotalAlloc - before.TotalAlloc
	rd.gcs = after.NumGC - before.NumGC
	s.Wait()
	if err != nil {
		return nil, err
	}
	rd.stats = s.Stats()
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			return nil, fmt.Errorf("member %d: static design corrupted", m.ID)
		}
		rd.injected += m.FaultsInjected
	}
	return rd, nil
}

// driveRequests submits the round's requests in the workload's drive
// discipline and returns the results indexed by request ID - 1.
func (w workload) driveRequests(s *sched.Scheduler, p *pool.Pool, rd *round, sp *spanLog, parent int) ([]sched.Result, error) {
	n := len(rd.reqs)
	results := make([]sched.Result, n)
	store := func(r sched.Result) error {
		if r.ID < 1 || int(r.ID) > n || results[r.ID-1].ID != 0 {
			return fmt.Errorf("result with unexpected request ID %d", r.ID)
		}
		results[r.ID-1] = r
		return nil
	}
	switch w.drive {
	case drivePaced:
		cur := rd.scenario.Cursor()
		for i, t := range rd.reqs {
			id := sp.begin("sched.request", parent, uint64(i+1))
			r := <-s.Submit(t)
			sp.end(id)
			if err := store(r); err != nil {
				return nil, err
			}
			settle(s)
			if due := cur.Due(i + 1); len(due) > 0 {
				if err := upset(s, p, due, sp, parent); err != nil {
					return nil, fmt.Errorf("upset after request %d: %w", i+1, err)
				}
			}
		}
	case drivePaired:
		for i := 0; i < n; i += 2 {
			end := min(i+2, n)
			ids := make([]int, 0, 2)
			for j := i; j < end; j++ {
				ids = append(ids, sp.begin("sched.request", parent, uint64(j+1)))
			}
			for k, ch := range s.SubmitBatch(rd.reqs[i:end]) {
				r := <-ch
				sp.end(ids[k])
				if err := store(r); err != nil {
					return nil, err
				}
			}
			settle(s)
		}
	case driveOpen:
		// One goroutine submits on the arrival schedule while this one
		// collects results in submission order, closing each request's
		// span as its result arrives.
		chs := make(chan (<-chan sched.Result), 1024)
		ids := make([]int, n)
		go func() {
			defer close(chs)
			for i, t := range rd.reqs {
				ids[i] = sp.begin("sched.request", parent, uint64(i+1))
				chs <- s.SubmitAt(t, rd.arrivals[i])
			}
		}()
		i := 0
		var firstErr error
		for ch := range chs {
			r := <-ch
			sp.end(ids[i])
			i++
			if err := store(r); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return results, nil
}

// upset injects the upsets due after a completion, then scrubs every idle
// slot and waits for the repairs.
func upset(s *sched.Scheduler, p *pool.Pool, due []fault.Event, sp *spanLog, parent int) error {
	for _, e := range due {
		id := sp.begin("fault.Apply", parent, 0)
		err := fault.Apply(p, e)
		sp.end(id)
		if err != nil {
			return err
		}
	}
	id := sp.begin("sched.ScrubAll", parent, 0)
	s.ScrubAll()
	settle(s)
	sp.end(id)
	return nil
}

// simTotals are a set of rounds' simulated outcomes.
type simTotals struct {
	requests int
	config   sim.Time // set-up pins plus the visible request-path part
	bytes    int64    // set-up pins plus request-path wire bytes
	work     sim.Time
	repair   sim.Time
	lat      []sim.Time // per-request slot latency: config plus work
}

func (t *simTotals) add(rd *round) {
	for _, pl := range rd.pins {
		t.config += pl.time
		t.bytes += int64(pl.bytes)
	}
	for _, r := range rd.results {
		t.requests++
		t.config += r.Report.Config
		t.bytes += int64(r.Report.BytesStreamed)
		t.work += r.Report.Work
		t.lat = append(t.lat, r.Latency())
	}
	t.repair += rd.stats.RepairConfig
}

// digests hash the round's per-request simulated results in request
// order. full covers the placement (member, region) plus the stream kind,
// wire bytes, visible and hidden configuration time and work time; sim
// leaves out the member, which on the open-loop drive follows host timing
// among identical boards.
func (rd *round) digests() (full, simOnly string) {
	hf, hs := sha256.New(), sha256.New()
	var buf [8]byte
	put := func(h hash.Hash, v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range rd.results {
		put(hf, int64(r.Member))
		failed := int64(0)
		if r.Err != nil {
			failed = 1
		}
		for _, h := range []hash.Hash{hf, hs} {
			for _, v := range []int64{int64(r.Region), int64(r.Report.Kind), int64(r.Report.BytesStreamed),
				int64(r.Report.Config), int64(r.Report.ConfigHidden), int64(r.Report.Work), failed} {
				put(h, v)
			}
		}
	}
	return fmt.Sprintf("%x", hf.Sum(nil)[:8]), fmt.Sprintf("%x", hs.Sum(nil)[:8])
}

// checkRound applies the outright-failure checks that hold for every
// round: every request completed exactly once, the scheduler's books
// balance against the results, and on the fault workload every injected
// upset was detected and repaired.
func (w workload) checkRound(rd *round) error {
	st := rd.stats
	if st.Done != uint64(len(rd.reqs)) {
		return fmt.Errorf("%d of %d requests completed", st.Done, len(rd.reqs))
	}
	var cfg sim.Time
	var bytes uint64
	for i, r := range rd.results {
		if r.ID != uint64(i+1) {
			return fmt.Errorf("request %d has no result", i+1)
		}
		if r.Module != rd.reqs[i].Module() {
			return fmt.Errorf("request %d ran %s, wanted %s", r.ID, r.Module, rd.reqs[i].Module())
		}
		cfg += r.Report.Config
		bytes += uint64(r.Report.BytesStreamed)
	}
	if cfg != st.Config || bytes != st.BytesStreamed {
		return fmt.Errorf("results sum to %v / %d B of configuration, scheduler books %v / %d B",
			cfg, bytes, st.Config, st.BytesStreamed)
	}
	if w.upsetRate > 0 {
		n := rd.upsets()
		if rd.injected != n || st.FaultsDetected != n || st.Repairs != n {
			return fmt.Errorf("upsets: %d scheduled, %d injected, %d detected, %d repaired",
				n, rd.injected, st.FaultsDetected, st.Repairs)
		}
	}
	return nil
}

// upsets counts the scheduled upsets that fired: those scheduled past the
// round's last completion never do.
func (rd *round) upsets() uint64 {
	n := uint64(0)
	for _, e := range rd.scenario.Events {
		if e.AfterDone <= len(rd.results) {
			n++
		}
	}
	return n
}

// missKinds counts the request-path loads by stream kind.
func missKinds(results []sched.Result) (loads, diff, complete, compressed int) {
	for _, r := range results {
		switch r.Report.Kind {
		case plan.StreamDifferential:
			diff++
		case plan.StreamComplete:
			complete++
		case plan.StreamCompressed:
			compressed++
		default:
			continue
		}
		loads++
	}
	return
}

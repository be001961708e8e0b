package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/busmacro"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/icap"
	"repro/internal/plan"
	"repro/internal/sim"
)

// storeRig wires a manager the way the platforms do: the CPU on a 64-bit
// PLB, the HWICAP on the 32-bit OPB behind the PLB→OPB bridge, and the
// device window guarded, so every configuration store blocks for the
// bridged write.
type storeRig struct {
	mgr      *Manager
	plb, opb *bus.Bus
	br       *bus.Bridge
	ticks    []sim.Time // firing times of a periodic kernel event
}

const storeRigICAP = 0x4100_0000

func newStoreRig(t testing.TB) *storeRig {
	t.Helper()
	dev, region := fabric.XC2VP7(), fabric.DynamicRegion32()
	cm := fabric.NewConfigMemory(dev)
	baseline := cm.Clone()
	loader := bitstream.NewLoader(cm)

	k := sim.NewKernel()
	busClk := sim.NewClock("bus", 50_000_000)
	plb := bus.New("plb", k, busClk, 8, bus.Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := bus.New("opb", k, busClk, 4, bus.Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	br := bus.NewBridge(plb, opb, 0x4000_0000, 1, 2)
	hi := icap.New(k, busClk, loader)
	if err := opb.Map(storeRigICAP, 0x100, hi); err != nil {
		t.Fatal(err)
	}
	if err := plb.Map(0x4000_0000, 0x1000_0000, br); err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams(sim.NewClock("cpu", 200_000_000))
	params.CacheSize = 0
	c := cpu.New(k, params, plb)
	c.MapGuarded(0x4000_0000, 0x1000_0000)

	asm, err := bitlinker.New(dev, region, baseline, busmacro.Dock32())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{
		Device: dev, Region: region, ConfigMem: cm, Baseline: baseline,
		Assembler: asm, Loader: loader, CPU: c, ICAPBase: storeRigICAP, ICAP: hi,
		Bind:   func(hw.Core) {},
		Kernel: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alpha", "beta", "gamma"} {
		id := uint64(i + 1)
		if err := mgr.Register(testComponentW(name, region, 4+2*i), func() hw.Core { return &testCore{id: id} }); err != nil {
			t.Fatal(err)
		}
	}
	return &storeRig{mgr: mgr, plb: plb, opb: opb, br: br}
}

// startTicks schedules a periodic kernel event that records its firing
// times: due events must fire between the same stores on both paths.
func (r *storeRig) startTicks() {
	k := r.mgr.cfg.Kernel
	var tick func()
	tick = func() {
		r.ticks = append(r.ticks, k.Now())
		k.Schedule(3*sim.Microsecond+7, tick)
	}
	k.Schedule(sim.Microsecond, tick)
}

// swLoopLoad is the oracle of LoadPlannedAbortable: the same gate and
// booking, with the stream pushed by one SW per word and the stop polled
// before every abortCheckWords-th word.
func swLoopLoad(m *Manager, p plan.Plan, stop func() bool) (sim.Time, int, error) {
	words, err := m.resolve(p)
	if err != nil {
		return 0, 0, err
	}
	if stop != nil && stop() {
		return 0, 0, ErrAborted
	}
	if p.Kind == plan.StreamNone {
		return 0, 0, nil
	}
	compressed := p.Kind == plan.StreamCompressed
	c := m.cfg.CPU
	start := m.cfg.Kernel.Now()
	if compressed {
		m.cfg.ICAP.ArmDecoder()
	}
	for i, w := range words {
		if stop != nil && i > 0 && i%abortCheckWords == 0 && stop() {
			c.SW(m.cfg.ICAPBase+icap.RegControl, icap.CtrlReset)
			c.Sync()
			elapsed := m.cfg.Kernel.Now() - start
			m.book(elapsed, 4*i, &m.abortedLoads)
			m.demote("abort")
			return elapsed, 4 * i, ErrAborted
		}
		c.SW(m.cfg.ICAPBase+icap.RegWriteFIFO, w)
	}
	c.Sync()
	var status uint32
	err = c.Spin(32, func() bool {
		status = c.LW(m.cfg.ICAPBase + icap.RegStatus)
		return status&(icap.StatDone|icap.StatError) != 0 && status&icap.StatBusy == 0
	})
	if compressed {
		if derr := m.cfg.ICAP.DisarmDecoder(); err == nil && derr != nil {
			err = derr
		}
	}
	elapsed := m.cfg.Kernel.Now() - start
	bytes := 4 * len(words)
	m.book(elapsed, bytes, m.kindCounter(p.Kind))
	if err != nil {
		m.demote("stream-error")
		return elapsed, bytes, err
	}
	if status&icap.StatError != 0 {
		m.demote("config-error")
		return elapsed, bytes, errors.New("configuration error")
	}
	return elapsed, bytes, nil
}

// snapshot is every observable the store path touches.
func (r *storeRig) snapshot() string {
	m := r.mgr
	pr, pw, pb := r.plb.Stats()
	or, ow, ob := r.opb.Stats()
	brr, brw := r.br.Stats()
	frames, configs, crcErrs := m.cfg.Loader.Stats()
	return fmt.Sprintf("now=%v ticks=%v cpu=%+v plb=%d/%d/%d@%v opb=%d/%d/%d@%v bridge=%d/%d icap=%d loader=%d/%d/%d",
		m.cfg.Kernel.Now(), r.ticks, m.cfg.CPU.Stats(), pr, pw, pb, r.plb.Utilization(),
		or, ow, ob, r.opb.Utilization(), brr, brw, m.cfg.ICAP.WordsWritten(), frames, configs, crcErrs)
}

// regionFrames returns every frame of the region's spans.
func (r *storeRig) regionFrames(t *testing.T) [][]uint32 {
	t.Helper()
	m := r.mgr
	var out [][]uint32
	for _, sp := range m.spans {
		for fi := sp.Lo; fi < sp.Hi; fi++ {
			far, err := m.cfg.Device.FARAt(fi)
			if err != nil {
				t.Fatal(err)
			}
			f, err := m.cfg.ConfigMem.ReadFrame(far)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

// TestWordSliceStoresMatchSWLoop drives identical plans into two identical
// bridged systems, one through the SW-per-word oracle and one through the
// production chunked SWs path, and requires every observable to agree after
// each stream: the timeline (with a periodic event firing between stores),
// CPU, bus and bridge counts, bus occupancy, HWICAP and loader counts, the
// result, and every region frame. The plans cover a complete stream, a
// differential, compressed containers with the decoder armed (complete and
// differential base), and stops that fire at chunk boundaries.
func TestWordSliceStoresMatchSWLoop(t *testing.T) {
	oracle, prod := newStoreRig(t), newStoreRig(t)
	oracle.startTicks()
	prod.startTicks()
	steps := []struct {
		p         plan.Plan
		stopAfter int // 0: never stop
	}{
		{plan.Plan{Module: "alpha", Kind: plan.StreamComplete}, 0},
		{plan.Plan{Module: "beta", From: "alpha", Kind: plan.StreamDifferential}, 0},
		{plan.Plan{Module: "gamma", Kind: plan.StreamCompressed, Base: plan.StreamComplete}, 0},
		{plan.Plan{Module: "alpha", From: "gamma", Kind: plan.StreamCompressed, Base: plan.StreamDifferential}, 0},
		// Trips on the first in-stream poll (word 256), then on the third.
		{plan.Plan{Module: "beta", Kind: plan.StreamComplete}, 2},
		{plan.Plan{Module: "gamma", Kind: plan.StreamComplete}, 4},
		{plan.Plan{Module: "beta", Kind: plan.StreamCompressed, Base: plan.StreamComplete}, 2},
		{plan.Plan{Module: "gamma", Kind: plan.StreamComplete}, 0},
	}
	for i, st := range steps {
		var stopO, stopP func() bool
		if st.stopAfter > 0 {
			stopO, stopP = stopAfter(st.stopAfter), stopAfter(st.stopAfter)
		}
		tO, bO, errO := swLoopLoad(oracle.mgr, st.p, stopO)
		tP, bP, errP := prod.mgr.LoadPlannedAbortable(st.p, stopP)
		if (errO == nil) != (errP == nil) || errors.Is(errO, ErrAborted) != errors.Is(errP, ErrAborted) {
			t.Fatalf("step %d %+v: oracle err %v, SWs err %v", i, st.p, errO, errP)
		}
		if st.stopAfter > 0 && !errors.Is(errP, ErrAborted) {
			t.Fatalf("step %d %+v: stop did not abort the stream (err %v)", i, st.p, errP)
		}
		if errP != nil && !errors.Is(errP, ErrAborted) {
			t.Fatalf("step %d %+v: %v", i, st.p, errP)
		}
		if tO != tP || bO != bP {
			t.Fatalf("step %d %+v: SWs took %v for %d B, oracle %v for %d B", i, st.p, tP, bP, tO, bO)
		}
		if so, sp := oracle.snapshot(), prod.snapshot(); so != sp {
			t.Fatalf("step %d %+v:\nSWs    %s\noracle %s", i, st.p, sp, so)
		}
		fo, fp := oracle.regionFrames(t), prod.regionFrames(t)
		for j := range fo {
			if !slices.Equal(fo[j], fp[j]) {
				t.Fatalf("step %d %+v: region frame %d differs", i, st.p, j)
			}
		}
		ro, ao := oracle.mgr.ResidentState()
		if rp, ap := prod.mgr.ResidentState(); ro != rp || ao != ap {
			t.Fatalf("step %d %+v: resident %q/%v, oracle %q/%v", i, st.p, rp, ap, ro, ao)
		}
	}
	if prod.mgr.AbortedLoads() != 3 || prod.mgr.CompressedLoads() == 0 {
		t.Fatalf("aborted %d compressed %d: the steps no longer cover aborts and containers",
			prod.mgr.AbortedLoads(), prod.mgr.CompressedLoads())
	}
	if len(prod.ticks) == 0 {
		t.Fatal("the periodic event never fired during the streams")
	}
}

// SWs through the resolved bridge port allocates nothing per call.
func TestWordSliceStoresAllocFree(t *testing.T) {
	r := newStoreRig(t)
	// Dummy words before sync: the configuration logic discards them.
	words := make([]uint32, 4096)
	for i := range words {
		words[i] = 0xFFFFFFFF
	}
	c := r.mgr.cfg.CPU
	store := func() { c.SWs(storeRigICAP+icap.RegWriteFIFO, words) }
	store()
	if allocs := testing.AllocsPerRun(10, store); allocs != 0 {
		t.Fatalf("SWs of %d words allocates %.1f times per call", len(words), allocs)
	}
}

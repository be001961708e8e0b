package cpu

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/memctl"
	"repro/internal/sim"
)

// rig builds a 64-bit PLB with a burstable memory and a CPU, cache optional.
func rig(cacheOn bool) (*sim.Kernel, *CPU, *memctl.Memory) {
	k := sim.NewKernel()
	plbClk := sim.NewClock("plb", 100_000_000)
	cpuClk := sim.NewClock("cpu", 300_000_000)
	plb := bus.New("plb", k, plbClk, 8, bus.Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	mem := memctl.New("ddr", 1<<20, 6, 2, 6)
	if err := plb.Map(0, 1<<20, mem); err != nil {
		panic(err)
	}
	p := DefaultParams(cpuClk)
	if !cacheOn {
		p.CacheSize = 0
	}
	c := New(k, p, plb)
	if cacheOn {
		c.MapCacheable(0, 1<<19) // lower half cacheable, upper half not
	}
	return k, c, mem
}

func TestOpCosts(t *testing.T) {
	k, c, _ := rig(false)
	cyc := c.Clock().Period()
	start := k.Now()
	c.Op(10)
	if d := k.Now() - start; d != 10*cyc {
		t.Errorf("10 ops took %v, want %v", d, 10*cyc)
	}
	start = k.Now()
	c.Mul()
	if d := k.Now() - start; d != 4*cyc {
		t.Errorf("mul took %v", d)
	}
	start = k.Now()
	c.Branch(true)
	if d := k.Now() - start; d != 3*cyc {
		t.Errorf("taken branch took %v, want 3 cycles", d)
	}
	start = k.Now()
	c.Branch(false)
	if d := k.Now() - start; d != 1*cyc {
		t.Errorf("untaken branch took %v, want 1 cycle", d)
	}
}

func TestNo64BitLoadStore(t *testing.T) {
	_, c, _ := rig(false)
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic — PPC405 has no 64-bit load/store", name)
			}
		}()
		fn()
	}
	assertPanics("load", func() { c.load(0, 8) })
	assertPanics("store", func() { c.store(0, 0, 8) })
}

func TestUncachedLoadTiming(t *testing.T) {
	k, c, mem := rig(false)
	mem.PokeBE(0x100, 0xCAFE, 4)
	start := k.Now()
	v := c.LW(0x100)
	if v != 0xCAFE {
		t.Fatalf("LW = %#x", v)
	}
	// bus: arb2 + waits6 + extra2 + beat1 = 11 bus cycles (10ns) = 110ns,
	// plus 1 CPU cycle LoadCycles.
	want := 110*sim.Nanosecond + c.Clock().Period()
	if d := k.Now() - start; d != want {
		t.Errorf("uncached load took %v, want %v", d, want)
	}
}

func TestCachedLoadsHitAfterMiss(t *testing.T) {
	k, c, mem := rig(true)
	mem.PokeBE(0x200, 77, 4)
	c.LW(0x200) // miss: fill
	st := c.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("after first load: %+v", st)
	}
	start := k.Now()
	for i := 0; i < 7; i++ {
		c.LW(0x200 + uint32(4*i)) // same 32-byte line
	}
	st = c.Stats()
	if st.CacheHits != 7 {
		t.Fatalf("hits = %d, want 7", st.CacheHits)
	}
	// 7 hits cost 7 * (LoadCycles + 1 hit cycle)? Hit cost is LoadCycles only.
	want := 7 * c.Clock().Period()
	if d := k.Now() - start; d != want {
		t.Errorf("7 cached hits took %v, want %v", d, want)
	}
}

func TestCacheMissFasterAmortizedThanUncached(t *testing.T) {
	k, c, _ := rig(true)
	// Sequential cached walk over 4 KB.
	start := k.Now()
	for a := uint32(0); a < 4096; a += 4 {
		c.LW(a)
	}
	cached := k.Now() - start
	// Same walk uncached (upper half of the map).
	start = k.Now()
	for a := uint32(0x8_0000); a < 0x8_0000+4096; a += 4 {
		c.LW(a)
	}
	uncached := k.Now() - start
	if cached >= uncached {
		t.Errorf("cached walk (%v) not faster than uncached (%v)", cached, uncached)
	}
}

func TestDirtyEvictionCostsWriteback(t *testing.T) {
	_, c, _ := rig(true)
	// Dirty a line, then walk addresses mapping to the same set to force
	// eviction. Sets = 16KB/(2*32) = 256, so stride = 256*32 = 8 KB.
	c.SW(0x0, 1)
	c.LW(0x2000)
	c.LW(0x4000) // evicts the dirty line at 0x0 (LRU)
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no eviction recorded for dirty line")
	}
}

func TestStoresFunctionallyVisible(t *testing.T) {
	_, c, mem := rig(true)
	c.SW(0x300, 0xAABBCCDD)
	if v := mem.PeekBE(0x300, 4); v != 0xAABBCCDD {
		t.Fatalf("cached store not visible in memory: %#x", v)
	}
	c.SB(0x300, 0x11)
	if v := mem.PeekBE(0x300, 4); v != 0x11BBCCDD {
		t.Fatalf("byte store wrong: %#x", v)
	}
	c.SH(0x302, 0x2233)
	if v := mem.PeekBE(0x300, 4); v != 0x11BB2233 {
		t.Fatalf("halfword store wrong: %#x", v)
	}
	if c.LB(0x301) != 0xBB || c.LH(0x302) != 0x2233 {
		t.Fatal("sub-word loads wrong")
	}
}

func TestWriteBufferPostsAndStalls(t *testing.T) {
	k, c, _ := rig(false)
	// A single uncached store should cost much less than the full bus write
	// (it is posted).
	start := k.Now()
	c.SW(0x100, 1)
	first := k.Now() - start
	busWrite := 50 * sim.Nanosecond // arb2+waits2+beat1 = 5 bus cycles
	if first >= busWrite {
		t.Errorf("posted store took %v, want < %v", first, busWrite)
	}
	// Saturate the buffer: eventually stores stall at the bus service rate.
	var last sim.Time
	for i := 0; i < 12; i++ {
		start = k.Now()
		c.SW(uint32(0x200+4*i), uint32(i))
		last = k.Now() - start
	}
	if last <= first {
		t.Errorf("saturated store (%v) not slower than first (%v)", last, first)
	}
	if c.Stats().PostedStalls == 0 {
		t.Error("no posted-write stalls recorded")
	}
}

func TestReadAfterPostedWriteOrdering(t *testing.T) {
	_, c, mem := rig(false)
	c.SW(0x400, 99)
	// The read queues behind the posted write on the bus resource, so it
	// must observe the value (functional write happens immediately anyway,
	// but timing-wise the read completes after).
	if v := c.LW(0x400); v != 99 {
		t.Fatalf("read after posted write = %d", v)
	}
	_ = mem
}

func TestFlushRange(t *testing.T) {
	k, c, _ := rig(true)
	for a := uint32(0); a < 256; a += 4 {
		c.SW(a, a)
	}
	st := c.Stats()
	if st.CacheMisses == 0 {
		t.Fatal("expected store misses with write-allocate")
	}
	start := k.Now()
	c.FlushRange(0, 256)
	flushTime := k.Now() - start
	if flushTime == 0 {
		t.Error("flush of dirty range cost no time")
	}
	// Second flush: everything clean/invalid, only dispatch cost.
	start = k.Now()
	c.FlushRange(0, 256)
	if d := k.Now() - start; d >= flushTime {
		t.Error("flush of clean range not cheaper than dirty flush")
	}
}

func TestInvalidateRange(t *testing.T) {
	_, c, mem := rig(true)
	mem.PokeBE(0x500, 1, 4)
	c.LW(0x500)
	h0 := c.Stats().CacheHits
	c.LW(0x500)
	if c.Stats().CacheHits != h0+1 {
		t.Fatal("expected hit before invalidate")
	}
	c.InvalidateRange(0x500, 4)
	m0 := c.Stats().CacheMisses
	c.LW(0x500)
	if c.Stats().CacheMisses != m0+1 {
		t.Fatal("expected miss after invalidate")
	}
}

func TestWaitForIRQ(t *testing.T) {
	k, c, _ := rig(false)
	fired := false
	k.Schedule(5*sim.Microsecond, func() { fired = true })
	if err := c.WaitForIRQ(func() bool { return fired }); err != nil {
		t.Fatal(err)
	}
	if k.Now() < 5*sim.Microsecond {
		t.Fatalf("woke too early at %v", k.Now())
	}
	if c.Stats().IRQs != 1 {
		t.Error("IRQ not counted")
	}
	// With no event pending, WaitForIRQ must fail rather than hang.
	if err := c.WaitForIRQ(func() bool { return false }); err == nil {
		t.Fatal("WaitForIRQ with empty queue should error")
	}
}

func TestSpin(t *testing.T) {
	k, c, _ := rig(false)
	n := 0
	if err := c.Spin(10, func() bool { n++; return n > 3 }); err != nil {
		t.Fatal(err)
	}
	if k.Now() == 0 {
		t.Error("spin cost no time")
	}
}

func TestSyncDrainsWriteBuffer(t *testing.T) {
	k, c, _ := rig(false)
	c.SW(0x100, 1)
	c.SW(0x104, 2)
	c.Sync()
	// After sync, the bus must be idle: a fresh read starts immediately.
	start := k.Now()
	c.LW(0x100)
	d := k.Now() - start
	want := 110*sim.Nanosecond + c.Clock().Period()
	if d != want {
		t.Errorf("read after sync took %v, want %v (no queueing)", d, want)
	}
}

// Property: LRU cache never reports more hits than accesses and the miss
// count matches distinct line/eviction behaviour for a random walk.
func TestCacheStatsSanityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		_, c, _ := rig(true)
		for _, a := range addrs {
			c.LW(uint32(a) & 0xFFFC)
		}
		st := c.Stats()
		return st.CacheHits+st.CacheMisses == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCacheGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	newDCache(1000, 3, 32)
}

// SWs must be indistinguishable from a loop of SW on every kind of
// address: cached, posted through the write buffer, and guarded (blocking,
// through a resolved bus port) — the same data, timeline, statistics and
// bus accounting, with due events firing between the same words.
func TestSWsMatchesSWLoop(t *testing.T) {
	words := make([]uint32, 300)
	for i := range words {
		words[i] = uint32(i)*0x9E3779B9 + 1
	}
	for _, tc := range []struct {
		name    string
		addr    uint32
		guarded bool
	}{
		{"cached", 0x100, false},
		{"posted", 0x8_0000, false},
		{"guarded", 0x8_0000, true},
	} {
		run := func(slice bool) (sim.Time, Stats, [3]uint64, []sim.Time, uint64) {
			k, c, mem := rig(true)
			if tc.guarded {
				c.MapGuarded(0x8_0000, 0x1000)
			}
			var fired []sim.Time
			for i := 1; i <= 5; i++ {
				k.Schedule(sim.Time(i)*700*sim.Nanosecond, func() { fired = append(fired, k.Now()) })
			}
			if slice {
				c.SWs(tc.addr, words[:0])
				c.SWs(tc.addr, words)
			} else {
				for _, w := range words {
					c.SW(tc.addr, w)
				}
			}
			c.Sync()
			r, w, b := c.bus.Stats()
			return k.Now(), c.Stats(), [3]uint64{r, w, b}, fired, mem.PeekBE(tc.addr, 4)
		}
		nowL, statsL, busL, firedL, memL := run(false)
		nowS, statsS, busS, firedS, memS := run(true)
		if nowL != nowS || statsL != statsS || busL != busS || memL != memS {
			t.Fatalf("%s: SWs now=%v stats=%+v bus=%v mem=%#x; SW loop now=%v stats=%+v bus=%v mem=%#x",
				tc.name, nowS, statsS, busS, memS, nowL, statsL, busL, memL)
		}
		if len(firedL) != len(firedS) {
			t.Fatalf("%s: %d events fired under SWs, %d under the SW loop", tc.name, len(firedS), len(firedL))
		}
		for i := range firedL {
			if firedL[i] != firedS[i] {
				t.Fatalf("%s: event %d fired at %v under SWs, %v under the SW loop", tc.name, i, firedS[i], firedL[i])
			}
		}
	}
}

// A blocking store through the CPU's cached bus port is indistinguishable
// from Bus.Write: mixed guarded addresses and sizes, interleaved with
// posted stores, leave the same timeline, core and bus statistics, bus
// occupancy and memory contents as an oracle that resolves every store.
func TestGuardedStorePortMatchesBusWrite(t *testing.T) {
	type access struct {
		addr uint32
		size int
	}
	seq := []access{
		{0x8_0000, 4}, {0x8_0000, 4}, {0x8_0000, 1}, {0x8_0000, 4}, {0x8_0004, 4},
		{0x8_0006, 2}, {0x8_0006, 2}, {0x4_0000, 4}, {0x8_0004, 4}, {0x8_0FFF, 1},
		{0x8_0000, 2}, {0x4_0010, 1}, {0x8_0000, 4},
	}
	run := func(oracle bool) (sim.Time, Stats, [3]uint64, float64, []byte) {
		k, c, mem := rig(false)
		c.MapGuarded(0x8_0000, 0x1000)
		for i := 0; i < 40; i++ {
			a := seq[i%len(seq)]
			val := uint32(i)*0x9E3779B9 + 7
			if oracle && c.guarded(a.addr) {
				c.stats.Stores++
				c.tick(c.p.StoreCycles)
				if err := c.bus.Write(a.addr, uint64(val), a.size); err != nil {
					t.Fatal(err)
				}
				continue
			}
			c.store(a.addr, val, a.size)
		}
		c.Sync()
		r, w, b := c.bus.Stats()
		guarded, _ := mem.ReadBytes(0x8_0000, 0x1000)
		posted, _ := mem.ReadBytes(0x4_0000, 0x20)
		return k.Now(), c.Stats(), [3]uint64{r, w, b}, c.bus.Utilization(), append(guarded, posted...)
	}
	nowO, statsO, busO, utilO, memO := run(true)
	nowP, statsP, busP, utilP, memP := run(false)
	if nowO != nowP || statsO != statsP || busO != busP || utilO != utilP {
		t.Fatalf("port now=%v stats=%+v bus=%v util=%v; Bus.Write now=%v stats=%+v bus=%v util=%v",
			nowP, statsP, busP, utilP, nowO, statsO, busO, utilO)
	}
	if !bytes.Equal(memO, memP) {
		t.Fatal("port stores left different memory contents than Bus.Write")
	}
}

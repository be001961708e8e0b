package bus

import (
	"math/rand"
	"testing"

	"repro/internal/memctl"
	"repro/internal/sim"
)

func testBus(k *sim.Kernel, width int) *Bus {
	clk := sim.NewClock("bus", 50_000_000) // 20 ns cycles
	return New("test", k, clk, width, Params{ArbCycles: 2, ReadExtra: 1, WriteExtra: 0, BeatCycles: 1})
}

func TestMappingAndDecode(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	m := memctl.NewBRAM(1 << 16)
	if err := b.Map(0x1000_0000, 1<<16, m); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x1000_8000, 1<<16, memctl.NewBRAM(16)); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
	if err := b.Map(0x2000_0000, 0, memctl.NewBRAM(16)); err == nil {
		t.Fatal("empty mapping accepted")
	}
	if _, err := b.Read(0x3000_0000, 4); err == nil {
		t.Fatal("unmapped read did not bus-error")
	}
	if err := b.Write(0x1000_0000, 0xDEADBEEF, 4); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read(0x1000_0000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("readback = %#x", v)
	}
}

func TestAccessSizeRules(t *testing.T) {
	k := sim.NewKernel()
	b32 := testBus(k, 4)
	if err := b32.Map(0, 1<<16, memctl.NewBRAM(1<<16)); err != nil {
		t.Fatal(err)
	}
	if _, err := b32.Read(0, 8); err == nil {
		t.Fatal("64-bit read on 32-bit bus accepted")
	}
	if _, err := b32.Read(0, 3); err == nil {
		t.Fatal("3-byte access accepted")
	}
	b64 := testBus(sim.NewKernel(), 8)
	if err := b64.Map(0, 1<<16, memctl.NewBRAM(1<<16)); err != nil {
		t.Fatal(err)
	}
	if _, err := b64.Read(0, 8); err != nil {
		t.Fatalf("64-bit read on 64-bit bus rejected: %v", err)
	}
}

func TestSingleTransferTiming(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	mem := memctl.New("m", 1<<16, 4, 3, -1) // 4 read waits, 3 write waits
	if err := b.Map(0, 1<<16, mem); err != nil {
		t.Fatal(err)
	}
	// Read: arb 2 + waits 4 + extra 1 + 1 beat = 8 cycles = 160 ns.
	start := k.Now()
	if _, err := b.Read(0, 4); err != nil {
		t.Fatal(err)
	}
	if d := k.Now() - start; d != 160*sim.Nanosecond {
		t.Errorf("read took %v, want 160ns", d)
	}
	// Write: arb 2 + waits 3 + 1 beat = 6 cycles = 120 ns.
	start = k.Now()
	if err := b.Write(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if d := k.Now() - start; d != 120*sim.Nanosecond {
		t.Errorf("write took %v, want 120ns", d)
	}
}

func TestContentionSerializes(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	mem := memctl.New("m", 1<<16, 4, 3, -1)
	if err := b.Map(0, 1<<16, mem); err != nil {
		t.Fatal(err)
	}
	// A posted write occupies the bus; a following read must queue.
	if _, err := b.WritePosted(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	start := k.Now()
	if _, err := b.Read(0, 4); err != nil {
		t.Fatal(err)
	}
	// write holds 120 ns, then the 160 ns read.
	if d := k.Now() - start; d != 280*sim.Nanosecond {
		t.Errorf("queued read took %v, want 280ns", d)
	}
}

func TestBurstTiming(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 8)
	ddr := memctl.New("ddr", 1<<20, 6, 2, 6)
	if err := b.Map(0, 1<<20, ddr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		ddr.PokeBE(uint32(8*i), uint64(i)<<32|uint64(i), 8)
	}
	data, done, err := b.BurstRead(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if v != uint64(i)<<32|uint64(i) {
			t.Fatalf("beat %d = %#x", i, v)
		}
	}
	// arb 2 + burst waits 6 + extra 1 + 16 beats = 25 cycles = 500 ns.
	if done != 500*sim.Nanosecond {
		t.Errorf("burst read completes at %v, want 500ns", done)
	}
	// Burst on a non-burst slave is rejected.
	sram := memctl.NewSRAM()
	b2 := testBus(sim.NewKernel(), 4)
	if err := b2.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b2.BurstRead(0, 4); err != nil {
		t.Fatal("SRAM degrades to per-beat waits via BurstWaits; burst read should still work through the BurstSlave interface")
	}
}

func TestBurstBoundaryChecks(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 8)
	if err := b.Map(0, 128, memctl.NewBRAM(128)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.BurstRead(64, 16); err == nil {
		t.Fatal("burst past mapping end accepted")
	}
	if _, _, err := b.BurstRead(0, 0); err == nil {
		t.Fatal("empty burst accepted")
	}
	if _, err := b.BurstWrite(64, make([]uint64, 16)); err == nil {
		t.Fatal("burst write past mapping end accepted")
	}
}

func TestPeekPokeHaveNoTimingEffect(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	if err := b.Map(0, 1<<16, memctl.NewBRAM(1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := b.Poke(0x10, 0xABCD, 4); err != nil {
		t.Fatal(err)
	}
	v, err := b.Peek(0x10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Fatalf("peek = %#x", v)
	}
	if k.Now() != 0 {
		t.Fatal("peek/poke advanced time")
	}
	if u := b.Utilization(); u != 0 {
		t.Fatalf("utilization = %f after peek/poke", u)
	}
}

func TestBridgeReadSlowerThanDirect(t *testing.T) {
	k := sim.NewKernel()
	plbClk := sim.NewClock("plb", 50_000_000)
	opbClk := sim.NewClock("opb", 50_000_000)
	plb := New("plb", k, plbClk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, opbClk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	sram := memctl.NewSRAM()
	if err := opb.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 1)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	sram.PokeBE(0x100, 0x1234, 4)

	start := k.Now()
	v, err := plb.Read(0x2000_0100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1234 {
		t.Fatalf("bridged read = %#x", v)
	}
	bridged := k.Now() - start

	// Direct OPB read of the same SRAM: arb2+waits4+extra1+beat1 = 8 cycles.
	start = k.Now()
	if _, err := opb.Read(0x100, 4); err != nil {
		t.Fatal(err)
	}
	direct := k.Now() - start
	if bridged <= direct {
		t.Errorf("bridged read (%v) not slower than direct (%v)", bridged, direct)
	}
	rd, _ := br.Stats()
	if rd != 1 {
		t.Errorf("bridge read count = %d", rd)
	}
}

func TestBridgePostedWrites(t *testing.T) {
	k := sim.NewKernel()
	plbClk := sim.NewClock("plb", 50_000_000)
	plb := New("plb", k, plbClk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, plbClk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	sram := memctl.NewSRAM()
	if err := opb.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 2)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	// First write is posted: PLB-side cost is small.
	start := k.Now()
	if err := plb.Write(0x2000_0000, 7, 4); err != nil {
		t.Fatal(err)
	}
	first := k.Now() - start
	// Saturating the post queue forces stalls: issue several back to back.
	var last sim.Time
	for i := 0; i < 6; i++ {
		start = k.Now()
		if err := plb.Write(0x2000_0000+uint32(4*i), uint64(i), 4); err != nil {
			t.Fatal(err)
		}
		last = k.Now() - start
	}
	if last <= first {
		t.Errorf("saturated posted write (%v) not slower than first (%v)", last, first)
	}
	// A read after posted writes must see them drained first (ordering).
	sram.PokeBE(0x500, 42, 4)
	v, err := plb.Read(0x2000_0500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("read-after-write = %d", v)
	}
}

// A steady stream of posted writes keeps the post queue in its backing
// array: once full, every write retires the oldest entry in place.
func TestBridgePostedWritesAllocFree(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock("c", 50_000_000)
	plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	if err := opb.Map(0, 1<<20, memctl.NewSRAM()); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 2)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	var i uint32
	write := func() {
		if err := plb.Write(0x2000_0000+4*(i%64), uint64(i), 4); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 8; j++ {
		write()
	}
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Fatalf("posted write allocates %.1f times per call", allocs)
	}
}

func TestBridge64BitSplit(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock("c", 50_000_000)
	plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	sram := memctl.NewSRAM()
	if err := opb.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 2)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	if err := plb.Write(0x2000_0000, 0x1122334455667788, 8); err != nil {
		t.Fatal(err)
	}
	v, err := plb.Read(0x2000_0000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("64-bit bridged roundtrip = %#x", v)
	}
}

// A split 64-bit access counts as the two 32-bit transfers the bridge
// forwards, on the bridge and on the OPB alike.
func TestBridgeCountsForwardedTransfers(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock("c", 50_000_000)
	plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	if err := opb.Map(0, 1<<20, memctl.NewSRAM()); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 2)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	if err := plb.Write(0x2000_0000, 0x1122334455667788, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := plb.Read(0x2000_0000, 8); err != nil {
		t.Fatal(err)
	}
	if err := plb.Write(0x2000_0010, 9, 4); err != nil {
		t.Fatal(err)
	}
	if rd, wr := br.Stats(); rd != 2 || wr != 3 {
		t.Fatalf("bridge counts reads=%d writes=%d, want 2/3", rd, wr)
	}
	if rd, wr, _ := opb.Stats(); rd != 2 || wr != 3 {
		t.Fatalf("opb counts reads=%d writes=%d, want 2/3", rd, wr)
	}
}

// A resolved port writes exactly as Bus.Write does: same data, same
// timeline, same counts and occupancy.
func TestWritePortMatchesWrite(t *testing.T) {
	type rig struct {
		k *sim.Kernel
		b *Bus
	}
	mk := func() rig {
		k := sim.NewKernel()
		b := New("opb", k, sim.NewClock("c", 50_000_000), 4, Params{ArbCycles: 2, WriteExtra: 1, BeatCycles: 1})
		if err := b.Map(0x1000, 1<<20, memctl.NewSRAM()); err != nil {
			t.Fatal(err)
		}
		return rig{k, b}
	}
	a, p := mk(), mk()
	for _, size := range []int{1, 2, 4} {
		addr := uint32(0x1000 + 8*size)
		port, err := p.b.WritePort(addr, size)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := a.b.Write(addr, uint64(0xA0+i), size); err != nil {
				t.Fatal(err)
			}
			port.Write(uint64(0xA0 + i))
			if a.k.Now() != p.k.Now() {
				t.Fatalf("size %d write %d: port at %v, Bus.Write at %v", size, i, p.k.Now(), a.k.Now())
			}
		}
		va, _ := a.b.Peek(addr, size)
		vp, _ := p.b.Peek(addr, size)
		if va != vp {
			t.Fatalf("size %d: port wrote %#x, Bus.Write %#x", size, vp, va)
		}
	}
	ar, aw, _ := a.b.Stats()
	pr, pw, _ := p.b.Stats()
	if ar != pr || aw != pw || a.b.Utilization() != p.b.Utilization() {
		t.Fatalf("port stats %d/%d util %v, Bus.Write %d/%d util %v", pr, pw, p.b.Utilization(), ar, aw, a.b.Utilization())
	}
	if _, err := p.b.WritePort(0x1000, 8); err == nil {
		t.Fatal("64-bit port on a 32-bit bus resolved")
	}
	if _, err := p.b.WritePort(0x10, 4); err == nil {
		t.Fatal("port at an unmapped address resolved")
	}
}

// The bridge's cached OPB port follows both the address and the access
// size: a byte store to the address of a previous word store writes one
// byte, and a store to another address lands there.
func TestBridgePortFollowsAddressAndSize(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock("c", 50_000_000)
	plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	if err := opb.Map(0, 1<<20, memctl.NewSRAM()); err != nil {
		t.Fatal(err)
	}
	if err := plb.Map(0x2000_0000, 1<<20, NewBridge(plb, opb, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		addr uint32
		val  uint64
		size int
	}{{0x10, 0x11223344, 4}, {0x10, 0xAB, 1}, {0x14, 0x55667788, 4}, {0x16, 0xCDEF, 2}} {
		if err := plb.Write(0x2000_0000+w.addr, w.val, w.size); err != nil {
			t.Fatal(err)
		}
	}
	for addr, want := range map[uint32]uint64{0x10: 0xAB223344, 0x14: 0x5566CDEF} {
		if v, err := plb.Read(0x2000_0000+addr, 4); err != nil || v != want {
			t.Fatalf("word at %#x = %#x (err %v), want %#x", addr, v, err, want)
		}
	}
}

// The last-hit decode answers exactly as a linear scan of the address map
// does, for random and alternating addresses over several slaves, in the
// gaps between them and past the end.
func TestDecodeLastHitMatchesScan(t *testing.T) {
	b := testBus(sim.NewKernel(), 4)
	for _, m := range []struct{ base, size uint32 }{
		{0x0000_0000, 0x1000}, {0x0000_1000, 0x10}, {0x2000_0000, 1 << 20}, {0x8000_0000, 4}, {0xFFFF_F000, 0x1000},
	} {
		if err := b.Map(m.base, m.size, memctl.NewBRAM(int(m.size))); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(addr uint32) (Slave, uint32, bool) {
		for _, m := range b.maps {
			if addr >= m.base && addr-m.base < m.size {
				return m.slave, addr - m.base, true
			}
		}
		return nil, 0, false
	}
	check := func(addr uint32) {
		t.Helper()
		s, off, err := b.decode(addr)
		ws, woff, ok := scan(addr)
		if s != ws || off != woff || (err == nil) != ok {
			t.Fatalf("decode(%#x) = %v+%#x err %v; scan %v+%#x mapped %v", addr, s, off, err, ws, woff, ok)
		}
	}
	// Each mapping's edges, the addresses either side of them, and
	// alternation between neighbours so the last hit is always stale.
	var edges []uint32
	for _, m := range b.maps {
		edges = append(edges, m.base-1, m.base, m.base+1, m.base+m.size-1, m.base+m.size)
	}
	for _, a := range edges {
		for _, c := range edges {
			check(a)
			check(c)
			check(a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			check(rng.Uint32())
		case 1:
			check(edges[rng.Intn(len(edges))])
		default:
			m := b.maps[rng.Intn(len(b.maps))]
			check(m.base + uint32(rng.Int63n(int64(m.size)+2)))
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
)

// randomMemory returns a memory of the device with every word seeded
// random: static and band content alike.
func randomMemory(t testing.TB, dev *fabric.Device, rng *rand.Rand) *fabric.ConfigMemory {
	t.Helper()
	cm := fabric.NewConfigMemory(dev)
	frame := make([]uint32, dev.FrameLen())
	for i := 0; i < dev.NumFrames(); i++ {
		far, err := dev.FARAt(i)
		if err != nil {
			t.Fatal(err)
		}
		for w := range frame {
			frame[w] = rng.Uint32()
		}
		if err := cm.WriteFrame(far, frame); err != nil {
			t.Fatal(err)
		}
	}
	return cm
}

// TestStaticCheckMatchesStaticHash drives seeded random WriteFrame/FlipBit
// sequences over 1-2 regions — band words, static words, region and
// non-region BRAM columns, and restores to the baseline — and after every
// step requires the incremental check to agree with the full-device
// static-hash oracle.
func TestStaticCheckMatchesStaticHash(t *testing.T) {
	cases := []struct {
		dev     *fabric.Device
		regions []fabric.Region
		steps   int
	}{
		{fabric.XC2VP7(), []fabric.Region{fabric.DynamicRegion32()}, 300},
		{fabric.XC2VP30(), []fabric.Region{fabric.DynamicRegion64()}, 150},
		{fabric.XC2VP30(), []fabric.Region{fabric.DynamicRegion64(), fabric.DynamicRegion64B()}, 150},
	}
	rng := rand.New(rand.NewSource(14))
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%d-regions", tc.dev.Name, len(tc.regions)), func(t *testing.T) {
			dev := tc.dev
			baseline := randomMemory(t, dev, rng)
			cm := baseline.Clone()
			check, err := NewStaticCheck(cm, baseline, tc.regions)
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.StaticHash(tc.regions...)
			frame := make([]uint32, dev.FrameLen())
			var touched []fabric.FAR
			restore := func(far fabric.FAR) {
				if err := baseline.ReadFrameInto(frame, far); err != nil {
					t.Fatal(err)
				}
				if err := cm.WriteFrame(far, frame); err != nil {
					t.Fatal(err)
				}
			}
			seen := map[bool]int{}
			recovered := 0
			prev := true
			for step := 0; step < tc.steps; step++ {
				r := tc.regions[rng.Intn(len(tc.regions))]
				lo, hi := dev.RowWordRange(r.Row0, r.H)
				var far fabric.FAR
				switch bcols := dev.BRAMColumns(r); rng.Intn(4) {
				case 0: // a CLB frame of the region
					far = fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0 + rng.Intn(r.W), Minor: rng.Intn(fabric.FramesPerCLBColumn)}
				case 1: // a BRAM frame of an enclosed column
					if len(bcols) == 0 {
						t.Fatalf("region %s encloses no BRAM column", r.Name)
					}
					far = fabric.FAR{Block: fabric.BlockBRAM, Major: bcols[rng.Intn(len(bcols))], Minor: rng.Intn(fabric.FramesPerBRAMColumn)}
				case 2: // any BRAM frame
					far = fabric.FAR{Block: fabric.BlockBRAM, Major: rng.Intn(len(dev.BRAMColPos)), Minor: rng.Intn(fabric.FramesPerBRAMColumn)}
				default: // any frame
					far, _ = dev.FARAt(rng.Intn(dev.NumFrames()))
				}
				switch op := rng.Intn(10); {
				case op < 3: // rewrite words inside the band
					if err := cm.ReadFrameInto(frame, far); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 1+rng.Intn(4); k++ {
						frame[lo+rng.Intn(hi-lo)] = rng.Uint32()
					}
					if err := cm.WriteFrame(far, frame); err != nil {
						t.Fatal(err)
					}
				case op < 5: // rewrite any one word
					if err := cm.ReadFrameInto(frame, far); err != nil {
						t.Fatal(err)
					}
					frame[rng.Intn(len(frame))] ^= 1 + rng.Uint32()%0xFFFF
					if err := cm.WriteFrame(far, frame); err != nil {
						t.Fatal(err)
					}
				case op < 6: // flip a band bit
					if err := cm.FlipBit(far, lo+rng.Intn(hi-lo), uint(rng.Intn(32))); err != nil {
						t.Fatal(err)
					}
				case op < 7: // flip any bit
					if err := cm.FlipBit(far, rng.Intn(dev.FrameLen()), uint(rng.Intn(32))); err != nil {
						t.Fatal(err)
					}
				default: // restore a touched frame to the baseline
					if len(touched) > 0 {
						far = touched[rng.Intn(len(touched))]
					}
					restore(far)
				}
				touched = append(touched, far)
				if step%50 == 49 {
					for _, f := range touched {
						restore(f)
					}
					touched = touched[:0]
				}
				got := check.Intact()
				if oracle := cm.StaticHash(tc.regions...) == want; got != oracle {
					t.Fatalf("step %d (%v): Intact() = %v, static-hash oracle %v", step, far, got, oracle)
				}
				seen[got]++
				if got && !prev {
					recovered++
				}
				prev = got
			}
			if seen[true] == 0 || seen[false] == 0 || recovered == 0 {
				t.Fatalf("walk never exercised both verdicts and a recovery: %v, %d recoveries", seen, recovered)
			}
		})
	}
}

// TestStaticCheckSeesInitialDifference: a memory that already differs
// from the baseline in a static word reads as disturbed from the start.
func TestStaticCheckSeesInitialDifference(t *testing.T) {
	dev := fabric.XC2VP7()
	baseline := fabric.NewConfigMemory(dev)
	cm := baseline.Clone()
	if err := cm.FlipBit(fabric.FAR{Block: fabric.BlockCLB, Major: dev.Cols - 1}, 0, 0); err != nil {
		t.Fatal(err)
	}
	check, err := NewStaticCheck(cm, baseline, []fabric.Region{fabric.DynamicRegion32()})
	if err != nil {
		t.Fatal(err)
	}
	if check.Intact() {
		t.Fatal("static difference present at construction went unseen")
	}
	if _, err := NewStaticCheck(fabric.NewConfigMemory(fabric.XC2VP30()), baseline, nil); err == nil {
		t.Fatal("baseline of another device accepted")
	}
}

// TestScrubAllocFree pins the readback pass of a verified region to zero
// allocations: it reads the span frames into the manager's buffer.
func TestScrubAllocFree(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := mgr.Register(testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Load("alpha"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if detected, _ := mgr.Scrub(); detected {
			t.Fatal("clean region scrubbed dirty")
		}
	})
	if allocs != 0 {
		t.Fatalf("Scrub allocates %.0f times per pass, want 0", allocs)
	}
}

// bandVariants returns two copies of the frame at far that differ from it
// only in the region's row band.
func bandVariants(t testing.TB, cm *fabric.ConfigMemory, far fabric.FAR, r fabric.Region) [2][]uint32 {
	t.Helper()
	lo, _ := cm.Device().RowWordRange(r.Row0, r.H)
	var out [2][]uint32
	for i := range out {
		f, err := cm.ReadFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		f[lo] ^= uint32(i + 1)
		out[i] = f
	}
	return out
}

// TestStaticCheckAllocFreeAfterBandWrites pins the static-design check
// after writes confined to the region band to zero allocations.
func TestStaticCheckAllocFreeAfterBandWrites(t *testing.T) {
	mgr, cm, region, _ := rig(t)
	check := mgr.cfg.StaticCheck
	far := fabric.FAR{Block: fabric.BlockCLB, Major: region.Col0, Minor: 3}
	variants := bandVariants(t, cm, far, region)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if err := cm.WriteFrame(far, variants[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
		if !check.Intact() {
			t.Fatal("band-only write read as static corruption")
		}
	})
	if allocs != 0 {
		t.Fatalf("static check allocates %.0f times per call, want 0", allocs)
	}
}

// BenchmarkScrub measures one readback-CRC pass over the 64-bit system's
// dynamic region with a module resident.
func BenchmarkScrub(b *testing.B) {
	mgr, _, region, _ := rigOn(b, fabric.XC2VP30(), fabric.DynamicRegion64())
	if err := mgr.Register(testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Load("alpha"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if detected, _ := mgr.Scrub(); detected {
			b.Fatal("clean region scrubbed dirty")
		}
	}
}

// BenchmarkStaticCheck measures the static-design check of the 64-bit
// system's dynamic region after a complete region load (every region
// frame rewritten, alternating between two modules) and after a one-frame
// differential. The timed loop includes the frame writes themselves.
func BenchmarkStaticCheck(b *testing.B) {
	mgr, cm, region, _ := rigOn(b, fabric.XC2VP30(), fabric.DynamicRegion64())
	check := mgr.cfg.StaticCheck
	var fars [2][]fabric.FAR
	var frames [2][][]uint32
	for i, name := range []string{"alpha", "beta"} {
		comp := testComponentW(name, region, region.W)
		if err := mgr.Register(comp, func() hw.Core { return &testCore{} }); err != nil {
			b.Fatal(err)
		}
		target := mgr.modules[name].target
		for _, sp := range mgr.spans {
			for fi := sp.Lo; fi < sp.Hi; fi++ {
				far, err := cm.Device().FARAt(fi)
				if err != nil {
					b.Fatal(err)
				}
				f, err := target.ReadFrame(far)
				if err != nil {
					b.Fatal(err)
				}
				fars[i] = append(fars[i], far)
				frames[i] = append(frames[i], f)
			}
		}
	}
	run := func(b *testing.B, write func(i int)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			write(i)
			if !check.Intact() {
				b.Fatal("static design read as disturbed")
			}
		}
	}
	b.Run("complete", func(b *testing.B) {
		run(b, func(i int) {
			for j, far := range fars[i%2] {
				if err := cm.WriteFrame(far, frames[i%2][j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("one-frame", func(b *testing.B) {
		far := fabric.FAR{Block: fabric.BlockCLB, Major: region.Col0, Minor: 3}
		variants := bandVariants(b, cm, far, region)
		run(b, func(i int) {
			if err := cm.WriteFrame(far, variants[i%2]); err != nil {
				b.Fatal(err)
			}
		})
	})
}

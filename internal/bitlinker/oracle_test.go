package bitlinker_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/busmacro"
	"repro/internal/fabric"
	"repro/internal/hwcore"
)

// oracle is the full-device form of the assembler: it clones the whole
// baseline, stamps the region band into the clone, and reads the region's
// frames back out of it. The assembler builds only the region's frames;
// everything it emits must equal what the oracle emits.
type oracle struct {
	dev      *fabric.Device
	region   fabric.Region
	baseline *fabric.ConfigMemory
}

// target is the post-configuration image: the baseline with the region
// band replaced by the assembled components.
func (o oracle) target(placements []bitlinker.Placed) *fabric.ConfigMemory {
	return o.stampInto(o.baseline.Clone(), placements)
}

// stampInto writes the region band of base: zeros everywhere in the band,
// then each component's frames at its placement, then deterministic BRAM
// content for enclosed BRAM columns.
func (o oracle) stampInto(base *fabric.ConfigMemory, placements []bitlinker.Placed) *fabric.ConfigMemory {
	r, wpr := o.region, bitlinker.WordsPerRow
	lo, _ := o.dev.RowWordRange(r.Row0, r.H)
	for col := 0; col < r.W; col++ {
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			far := fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0 + col, Minor: minor}
			frame := mustRead(base, far)
			for row := 0; row < r.H; row++ {
				for w := 0; w < wpr; w++ {
					frame[lo+wpr*row+w] = 0
				}
			}
			for _, p := range placements {
				if col < p.ColOff || col >= p.ColOff+p.C.W {
					continue
				}
				src := p.C.CLBFrames[col-p.ColOff][minor]
				for row := 0; row < p.C.H; row++ {
					for w := 0; w < wpr; w++ {
						frame[lo+wpr*(p.RowOff+row)+w] = src[wpr*row+w]
					}
				}
			}
			mustWrite(base, far, frame)
		}
	}
	for bi, bcol := range o.dev.BRAMColumns(r) {
		pos := o.dev.BRAMColPos[bcol]
		for minor := 0; minor < fabric.FramesPerBRAMColumn; minor++ {
			far := fabric.FAR{Block: fabric.BlockBRAM, Major: bcol, Minor: minor}
			frame := mustRead(base, far)
			for i := lo; i < lo+wpr*r.H; i++ {
				frame[i] = 0
			}
			for _, p := range placements {
				if p.C.Resources.BRAMs == 0 {
					continue
				}
				c0 := r.Col0 + p.ColOff
				if pos >= c0 && pos+1 < c0+p.C.W {
					for i := lo; i < lo+wpr*r.H; i++ {
						frame[i] = bitlinker.Splitmix(p.C.BRAMSeed ^ uint64(bi)<<32 ^ uint64(minor)<<16 ^ uint64(i))
					}
				}
			}
			mustWrite(base, far, frame)
		}
	}
	return base
}

// regionFARs lists the region's frame addresses in linear order.
func (o oracle) regionFARs() []fabric.FAR {
	var fars []fabric.FAR
	for col := 0; col < o.region.W; col++ {
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			fars = append(fars, fabric.FAR{Block: fabric.BlockCLB, Major: o.region.Col0 + col, Minor: minor})
		}
	}
	for _, bcol := range o.dev.BRAMColumns(o.region) {
		for minor := 0; minor < fabric.FramesPerBRAMColumn; minor++ {
			fars = append(fars, fabric.FAR{Block: fabric.BlockBRAM, Major: bcol, Minor: minor})
		}
	}
	return fars
}

// regionRuns converts the region's frames in the target image into one
// run over all CLB columns plus one run per enclosed BRAM column.
func (o oracle) regionRuns(target *fabric.ConfigMemory) ([]bitstream.FrameRun, int) {
	var runs []bitstream.FrameRun
	total := 0
	for _, far := range o.regionFARs() {
		if far.Minor == 0 && (far.Block == fabric.BlockBRAM || far.Major == o.region.Col0) {
			runs = append(runs, bitstream.FrameRun{Start: far})
		}
		run := &runs[len(runs)-1]
		run.Frames = append(run.Frames, mustRead(target, far))
		total++
	}
	return runs, total
}

// result builds the stream of the runs and hashes the target's region.
func (o oracle) result(t *testing.T, runs []bitstream.FrameRun, frames int, target *fabric.ConfigMemory) *bitlinker.Result {
	t.Helper()
	s, err := bitstream.Build(o.dev, runs)
	if err != nil {
		t.Fatal(err)
	}
	return &bitlinker.Result{Stream: s, Frames: frames, RegionHash: target.RegionHash(o.region)}
}

func (o oracle) assemble(t *testing.T, placements []bitlinker.Placed) *bitlinker.Result {
	target := o.target(placements)
	runs, frames := o.regionRuns(target)
	return o.result(t, runs, frames, target)
}

func (o oracle) naive(t *testing.T, placements []bitlinker.Placed) *bitlinker.Result {
	target := o.stampInto(fabric.NewConfigMemory(o.dev), placements)
	runs, frames := o.regionRuns(target)
	return o.result(t, runs, frames, target)
}

// differential emits the target frames that differ from assumed, merging
// address-consecutive differing frames into one run.
func (o oracle) differential(t *testing.T, assumed *fabric.ConfigMemory, placements []bitlinker.Placed) *bitlinker.Result {
	target := o.target(placements)
	var runs []bitstream.FrameRun
	frames, prev := 0, -1
	for _, far := range o.regionFARs() {
		idx, err := o.dev.FrameIndex(far)
		if err != nil {
			t.Fatal(err)
		}
		want := mustRead(target, far)
		if slices.Equal(want, mustRead(assumed, far)) {
			prev = -1
			continue
		}
		frames++
		if prev >= 0 && idx == prev+1 {
			runs[len(runs)-1].Frames = append(runs[len(runs)-1].Frames, want)
		} else {
			runs = append(runs, bitstream.FrameRun{Start: far, Frames: [][]uint32{want}})
		}
		prev = idx
	}
	return o.result(t, runs, frames, target)
}

func mustRead(cm *fabric.ConfigMemory, far fabric.FAR) []uint32 {
	f, err := cm.ReadFrame(far)
	if err != nil {
		panic(err)
	}
	return f
}

func mustWrite(cm *fabric.ConfigMemory, far fabric.FAR, f []uint32) {
	if err := cm.WriteFrame(far, f); err != nil {
		panic(err)
	}
}

// randomBaseline fills every frame of a memory with seeded random words,
// the region bands included: the assembler must overwrite the band and
// keep everything else.
func randomBaseline(dev *fabric.Device, rng *rand.Rand) *fabric.ConfigMemory {
	cm := fabric.NewConfigMemory(dev)
	frame := make([]uint32, dev.FrameLen())
	for i := 0; i < dev.NumFrames(); i++ {
		far, err := dev.FARAt(i)
		if err != nil {
			panic(err)
		}
		for w := range frame {
			frame[w] = rng.Uint32()
		}
		mustWrite(cm, far, frame)
	}
	return cm
}

// coversBRAM reports whether a placement spans both CLB neighbours of an
// enclosed BRAM column, so the assembler stamps BRAM content for it.
func coversBRAM(dev *fabric.Device, r fabric.Region, placements []bitlinker.Placed) bool {
	for _, bcol := range dev.BRAMColumns(r) {
		pos := dev.BRAMColPos[bcol]
		for _, p := range placements {
			if c0 := r.Col0 + p.ColOff; pos >= c0 && pos+1 < c0+p.C.W {
				return true
			}
		}
	}
	return false
}

// leftDock64 is the 64-bit dock macro on the region's left edge.
func leftDock64() *busmacro.Macro {
	m := busmacro.Dock64()
	m.Side = busmacro.LeftEdge
	return m
}

func requireSameResult(t *testing.T, what string, got, want *bitlinker.Result) {
	t.Helper()
	if !slices.Equal(got.Stream.Words, want.Stream.Words) {
		t.Fatalf("%s: stream differs from the full-device oracle (%d vs %d words)",
			what, len(got.Stream.Words), len(want.Stream.Words))
	}
	if got.Frames != want.Frames || got.RegionHash != want.RegionHash {
		t.Fatalf("%s: (frames %d, hash %#x), oracle (%d, %#x)",
			what, got.Frames, got.RegionHash, want.Frames, want.RegionHash)
	}
}

// TestRegionAssemblyMatchesFullDeviceOracle checks every assembly entry
// point against the full-device oracle on a seeded random baseline: the
// complete, naive and differential streams (every from→to pair of the
// hwcore components that fit, the blank baseline included) must be
// word-identical, with the same frame count and region hash, and Target
// must equal the oracle's image frame for frame and hash to the result's
// RegionHash.
func TestRegionAssemblyMatchesFullDeviceOracle(t *testing.T) {
	cases := []struct {
		dev    *fabric.Device
		region fabric.Region
		macro  *busmacro.Macro
	}{
		{fabric.XC2VP7(), fabric.DynamicRegion32(), busmacro.Dock32()},
		{fabric.XC2VP30(), fabric.DynamicRegion64(), busmacro.Dock64()},
		// dynamic64b ends at the device's right edge: dock it on the left.
		{fabric.XC2VP30(), fabric.DynamicRegion64B(), leftDock64()},
	}
	rng := rand.New(rand.NewSource(14))
	for _, tc := range cases {
		t.Run(tc.region.Name, func(t *testing.T) {
			o := oracle{dev: tc.dev, region: tc.region, baseline: randomBaseline(tc.dev, rng)}
			asm, err := bitlinker.New(tc.dev, tc.region, o.baseline, tc.macro)
			if err != nil {
				t.Fatal(err)
			}
			placed := map[string][]bitlinker.Placed{}
			var names []string
			for _, spec := range hwcore.Specs() {
				comp, err := hwcore.BuildComponent(spec, tc.dev, tc.region, tc.macro)
				if err != nil {
					continue // does not fit this region
				}
				names = append(names, spec.Name)
				off := tc.region.W - comp.W
				if tc.macro.Side == busmacro.LeftEdge {
					off = 0
				}
				placed[spec.Name] = []bitlinker.Placed{{C: comp, ColOff: off}}
			}
			if len(names) < 2 {
				t.Fatalf("only %d components fit %s", len(names), tc.region.Name)
			}
			// Two undocked components side by side at a seeded offset,
			// each wide enough to enclose BRAM columns of wide regions.
			w := tc.region.W / 2
			pair := make([]bitlinker.Placed, 2)
			for i := range pair {
				name := fmt.Sprintf("pair%d", i)
				pair[i] = bitlinker.Placed{C: &bitlinker.Component{
					Name: name, Version: "1", W: w - 1, H: tc.region.H - 1,
					Resources: fabric.Resources{Slices: 4, BRAMs: tc.region.BRAMBudget / 2},
					CLBFrames: bitlinker.SynthesizeFrames(name, "1", w-1, tc.region.H-1),
					BRAMSeed:  rng.Uint64(),
				}, ColOff: i*w + rng.Intn(2), RowOff: rng.Intn(2)}
			}
			if !coversBRAM(tc.dev, tc.region, pair) {
				t.Fatalf("no pair component covers a BRAM column of %s", tc.region.Name)
			}
			names = append(names, "pair")
			placed["pair"] = pair

			targets := map[string]*fabric.ConfigMemory{"": o.baseline}
			for _, name := range names {
				p := placed[name]
				res, err := asm.Assemble(p...)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "Assemble "+name, res, o.assemble(t, p))
				naive, err := asm.AssembleNaive(p...)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "AssembleNaive "+name, naive, o.naive(t, p))

				target, want := asm.Target(p...), o.target(p)
				for i := 0; i < tc.dev.NumFrames(); i++ {
					far, _ := tc.dev.FARAt(i)
					if !slices.Equal(mustRead(target, far), mustRead(want, far)) {
						t.Fatalf("Target %s: frame %v differs from the oracle image", name, far)
					}
				}
				if got := target.RegionHash(tc.region); got != res.RegionHash {
					t.Fatalf("Target %s: region hash %#x, Assemble reports %#x", name, got, res.RegionHash)
				}
				targets[name] = target
			}
			for _, from := range append([]string{""}, names...) {
				for _, to := range names {
					if from == to {
						continue
					}
					res, err := asm.AssembleDifferential(targets[from], placed[to]...)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("AssembleDifferential %q→%s", from, to),
						res, o.differential(t, targets[from], placed[to]))
				}
			}
		})
	}
}

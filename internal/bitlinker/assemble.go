package bitlinker

import (
	"fmt"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/busmacro"
	"repro/internal/fabric"
)

// Placed is a component plus its placement inside the region (CLB offsets
// relative to the region origin).
type Placed struct {
	C      *Component
	ColOff int
	RowOff int
}

// Assembler produces partial configurations for one dynamic region. It keeps
// the static design baseline (the frames of the initial full configuration),
// which it needs to rebuild full-height frames without disturbing the static
// circuits above and below the region.
type Assembler struct {
	dev      *fabric.Device
	region   fabric.Region
	baseline *fabric.ConfigMemory
	dock     *busmacro.Macro
}

// New returns an assembler for the region. baseline must hold the static
// design's configuration; dock is the bus macro offered by the static side
// (nil if the region has no dock).
func New(dev *fabric.Device, region fabric.Region, baseline *fabric.ConfigMemory, dock *busmacro.Macro) (*Assembler, error) {
	if err := dev.ValidateRegion(region); err != nil {
		return nil, err
	}
	if baseline.Device() != dev {
		return nil, fmt.Errorf("bitlinker: baseline belongs to a different device")
	}
	if dock != nil {
		if err := dock.Validate(dev, region); err != nil {
			return nil, err
		}
	}
	return &Assembler{dev: dev, region: region, baseline: baseline, dock: dock}, nil
}

// Result is an assembled partial configuration.
type Result struct {
	Stream *bitstream.Stream
	// Frames is the number of configuration frames the stream writes.
	Frames int
	// RegionHash is the content hash the region will have after loading the
	// stream (used to register behavioural bindings).
	RegionHash uint64
}

// Assemble relocates and merges the placed components and emits a complete
// (non-differential) configuration of the whole region: every frame of every
// region column is written, so the result is correct regardless of the
// region's previous configuration.
func (a *Assembler) Assemble(placements ...Placed) (*Result, error) {
	if err := a.check(placements); err != nil {
		return nil, err
	}
	return a.complete(a.regionImage(a.baseline, placements))
}

// AssembleDifferential emits only the frames that differ from the assumed
// prior image (the paper's "differential" configurations, §2.2). The stream
// is smaller and loads faster, but yields a correct region configuration
// only when the region actually holds the assumed image at load time.
func (a *Assembler) AssembleDifferential(assumed *fabric.ConfigMemory, placements ...Placed) (*Result, error) {
	if err := a.check(placements); err != nil {
		return nil, err
	}
	if assumed.Device() != a.dev {
		return nil, fmt.Errorf("bitlinker: assumed image belongs to a different device")
	}
	image := a.regionImage(a.baseline, placements)
	have := make([]uint32, a.dev.FrameLen())
	var runs []bitstream.FrameRun
	cur := -1  // index into runs of the run being extended, -1 if none
	start := 0 // image index of the current run's first frame
	prev := -1 // device frame index of the previous image frame
	frames := 0
	a.forEachRegionFAR(func(j int, far fabric.FAR) {
		want := image[j]
		idx, err := a.dev.FrameIndex(far)
		if err == nil {
			err = assumed.ReadFrameInto(have, far)
		}
		if err != nil {
			panic(err) // region addresses are constructed in range
		}
		if slices.Equal(want, have) {
			cur = -1
		} else {
			frames++
			// Extend the current run when far follows its last frame.
			if cur >= 0 && idx == prev+1 {
				runs[cur].Frames = image[start : j+1]
			} else {
				runs = append(runs, bitstream.FrameRun{Start: far, Frames: image[j : j+1]})
				cur, start = len(runs)-1, j
			}
		}
		prev = idx
	})
	if len(runs) == 0 {
		return nil, fmt.Errorf("bitlinker: differential configuration is empty (target equals assumed image)")
	}
	s, err := bitstream.Build(a.dev, runs)
	if err != nil {
		return nil, err
	}
	return &Result{Stream: s, Frames: frames, RegionHash: a.dev.RegionFramesHash(a.region, image)}, nil
}

// AssembleNaive emits a configuration of the region columns whose frames
// carry the component data in the band but ZEROS above and below it —
// the mistake a configuration assembly tool must avoid, since it destroys
// the static circuits sharing those full-height frames. It exists to
// demonstrate the hazard (ablation A2); production code must use Assemble.
func (a *Assembler) AssembleNaive(placements ...Placed) (*Result, error) {
	if err := a.check(placements); err != nil {
		return nil, err
	}
	return a.complete(a.regionImage(nil, placements))
}

// complete emits every frame of the region image: one run covering all CLB
// columns (they are contiguous in frame address space) plus one run per
// enclosed BRAM column.
func (a *Assembler) complete(image [][]uint32) (*Result, error) {
	r := a.region
	clb := r.W * fabric.FramesPerCLBColumn
	runs := []bitstream.FrameRun{{
		Start:  fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0, Minor: 0},
		Frames: image[:clb],
	}}
	for i, bcol := range a.dev.BRAMColumns(r) {
		off := clb + i*fabric.FramesPerBRAMColumn
		runs = append(runs, bitstream.FrameRun{
			Start:  fabric.FAR{Block: fabric.BlockBRAM, Major: bcol, Minor: 0},
			Frames: image[off : off+fabric.FramesPerBRAMColumn],
		})
	}
	s, err := bitstream.Build(a.dev, runs)
	if err != nil {
		return nil, err
	}
	return &Result{Stream: s, Frames: len(image), RegionHash: a.dev.RegionFramesHash(r, image)}, nil
}

// check validates placements: footprint fit, overlap, dock alignment, BRAM
// budget, and macro compatibility.
func (a *Assembler) check(placements []Placed) error {
	if len(placements) == 0 {
		return fmt.Errorf("bitlinker: nothing to assemble")
	}
	r := a.region
	bram := 0
	occupied := make(map[[2]int]string)
	docked := 0
	for _, p := range placements {
		c := p.C
		if err := c.Validate(); err != nil {
			return err
		}
		if p.ColOff < 0 || p.RowOff < 0 || p.ColOff+c.W > r.W || p.RowOff+c.H > r.H {
			return fmt.Errorf("bitlinker: component %s at (%d,%d) exceeds region %s",
				c.Name, p.ColOff, p.RowOff, r.Name)
		}
		for col := p.ColOff; col < p.ColOff+c.W; col++ {
			for row := p.RowOff; row < p.RowOff+c.H; row++ {
				key := [2]int{col, row}
				if prev, ok := occupied[key]; ok {
					return fmt.Errorf("bitlinker: components %s and %s overlap at region CLB (%d,%d)",
						prev, c.Name, col, row)
				}
				occupied[key] = c.Name
			}
		}
		bram += c.Resources.BRAMs
		if c.Macro != nil {
			docked++
			if a.dock == nil {
				return fmt.Errorf("bitlinker: component %s needs a dock, region has none", c.Name)
			}
			if !busmacro.Compatible(c.Macro, a.dock) {
				return fmt.Errorf("bitlinker: component %s port contract %v does not match dock macro %v",
					c.Name, c.Macro, a.dock)
			}
			// The ports must land exactly on the dock macro LUT rows, and
			// the component must abut the dock edge of the region.
			if p.RowOff+c.PortRow0 != a.dock.Row0 {
				return fmt.Errorf("bitlinker: component %s ports land on region row %d, dock macro is at row %d",
					c.Name, p.RowOff+c.PortRow0, a.dock.Row0)
			}
			switch a.dock.Side {
			case busmacro.RightEdge:
				if p.ColOff+c.W != r.W {
					return fmt.Errorf("bitlinker: component %s must abut the region's right edge to reach the dock", c.Name)
				}
			case busmacro.LeftEdge:
				if p.ColOff != 0 {
					return fmt.Errorf("bitlinker: component %s must abut the region's left edge to reach the dock", c.Name)
				}
			}
		}
	}
	if docked > 1 {
		return fmt.Errorf("bitlinker: %d components claim the dock, at most one may", docked)
	}
	if bram > r.BRAMBudget {
		return fmt.Errorf("bitlinker: placements need %d BRAMs, region reserves %d", bram, r.BRAMBudget)
	}
	return nil
}

// Target returns the configuration image the placements would leave in the
// device: the static baseline with the region band holding the assembled
// components. Callers use it as the assumed-state input of differential
// assembly.
func (a *Assembler) Target(placements ...Placed) *fabric.ConfigMemory {
	out := a.baseline.Clone()
	image := a.regionImage(a.baseline, placements)
	a.forEachRegionFAR(func(j int, far fabric.FAR) {
		if err := out.WriteFrame(far, image[j]); err != nil {
			panic(err) // region addresses are constructed in range
		}
	})
	return out
}

// regionImage returns the region's frames after a complete load of the
// placements over base (a blank device when base is nil), in
// forEachRegionFAR order and backed by one array: each frame is base's
// frame with the region band rewritten — zeros everywhere in the band,
// then each component's frames at its placement, then deterministic BRAM
// content for enclosed BRAM columns. Words outside the band keep base's
// content, which is what preserves the static design.
func (a *Assembler) regionImage(base *fabric.ConfigMemory, placements []Placed) [][]uint32 {
	r := a.region
	flen := a.dev.FrameLen()
	bcols := a.dev.BRAMColumns(r)
	image := make([][]uint32, r.W*fabric.FramesPerCLBColumn+len(bcols)*fabric.FramesPerBRAMColumn)
	backing := make([]uint32, len(image)*flen)
	a.forEachRegionFAR(func(j int, far fabric.FAR) {
		image[j], backing = backing[:flen:flen], backing[flen:]
		if base != nil {
			if err := base.ReadFrameInto(image[j], far); err != nil {
				panic(err) // region addresses are constructed in range
			}
		}
	})
	lo, hi := a.dev.RowWordRange(r.Row0, r.H)
	j := 0
	for col := 0; col < r.W; col++ {
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			frame := image[j]
			j++
			clear(frame[lo:hi])
			for _, p := range placements {
				if col < p.ColOff || col >= p.ColOff+p.C.W {
					continue
				}
				src := p.C.CLBFrames[col-p.ColOff][minor]
				copy(frame[lo+wordsPerRow*p.RowOff:], src[:wordsPerRow*p.C.H])
			}
		}
	}
	for bi, bcol := range bcols {
		pos := a.dev.BRAMColPos[bcol]
		for minor := 0; minor < fabric.FramesPerBRAMColumn; minor++ {
			frame := image[j]
			j++
			clear(frame[lo:hi])
			for _, p := range placements {
				if p.C.Resources.BRAMs == 0 {
					continue
				}
				// The component covers this BRAM column when both CLB
				// neighbours of the column lie inside its span.
				c0 := r.Col0 + p.ColOff
				if pos >= c0 && pos+1 < c0+p.C.W {
					for i := lo; i < hi; i++ {
						frame[i] = splitmix(p.C.BRAMSeed ^ uint64(bi)<<32 ^ uint64(minor)<<16 ^ uint64(i))
					}
				}
			}
		}
	}
	return image
}

// forEachRegionFAR visits every frame address owned by the region, in linear
// order, with its position j in that order (its index in a region image).
func (a *Assembler) forEachRegionFAR(fn func(j int, far fabric.FAR)) {
	r := a.region
	j := 0
	for col := 0; col < r.W; col++ {
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			fn(j, fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0 + col, Minor: minor})
			j++
		}
	}
	for _, bcol := range a.dev.BRAMColumns(r) {
		for minor := 0; minor < fabric.FramesPerBRAMColumn; minor++ {
			fn(j, fabric.FAR{Block: fabric.BlockBRAM, Major: bcol, Minor: minor})
			j++
		}
	}
}

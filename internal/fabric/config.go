package fabric

import "fmt"

// ConfigMemory holds the current contents of the device's configuration
// memory, frame by frame. It is the state that partial bitstreams mutate and
// that behavioural binding (hashing a region's frames) observes.
//
// Every mutation (WriteFrame, FlipBit) advances a generation counter and
// stamps the frame it touched with it, so a consumer that remembers the
// generation it last looked at can revisit only the frames changed since
// (ChangedSince) instead of the whole device.
type ConfigMemory struct {
	dev    *Device
	frames [][]uint32
	stamps []uint64 // per frame: generation of its last mutation
	gen    uint64
	writes uint64
}

// NewConfigMemory returns the configuration memory of an erased device
// (all-zero frames).
func NewConfigMemory(d *Device) *ConfigMemory {
	frames := make([][]uint32, d.NumFrames())
	flen := d.FrameLen()
	backing := make([]uint32, len(frames)*flen)
	for i := range frames {
		frames[i], backing = backing[:flen:flen], backing[flen:]
	}
	return &ConfigMemory{dev: d, frames: frames, stamps: make([]uint64, len(frames))}
}

// Device returns the device this memory belongs to.
func (cm *ConfigMemory) Device() *Device { return cm.dev }

// FrameWrites reports how many frame writes have been applied (configuration
// activity statistic).
func (cm *ConfigMemory) FrameWrites() uint64 { return cm.writes }

// WriteFrame replaces the frame at far with data (which must be exactly one
// frame long).
func (cm *ConfigMemory) WriteFrame(far FAR, data []uint32) error {
	if len(data) != cm.dev.FrameLen() {
		return fmt.Errorf("fabric: frame write to %v with %d words, frame length is %d",
			far, len(data), cm.dev.FrameLen())
	}
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return err
	}
	copy(cm.frames[i], data)
	cm.writes++
	cm.touch(i)
	return nil
}

// touch stamps frame i with a fresh generation.
func (cm *ConfigMemory) touch(i int) {
	cm.gen++
	cm.stamps[i] = cm.gen
}

// ReadFrame returns a copy of the frame at far (configuration readback).
func (cm *ConfigMemory) ReadFrame(far FAR) ([]uint32, error) {
	out := make([]uint32, cm.dev.FrameLen())
	if err := cm.ReadFrameInto(out, far); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFrameInto copies the frame at far into dst, which must be exactly one
// frame long — readback into a caller-owned buffer, for loops that look at
// one frame at a time and keep none.
func (cm *ConfigMemory) ReadFrameInto(dst []uint32, far FAR) error {
	if len(dst) != cm.dev.FrameLen() {
		return fmt.Errorf("fabric: frame read from %v into %d words, frame length is %d",
			far, len(dst), cm.dev.FrameLen())
	}
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return err
	}
	copy(dst, cm.frames[i])
	return nil
}

// Generation returns the memory's mutation count: every WriteFrame and
// FlipBit advances it and stamps the frame it touched.
func (cm *ConfigMemory) Generation() uint64 { return cm.gen }

// ChangedSince calls fn, in device frame order, for every frame mutated
// after generation gen (as returned by an earlier Generation call).
func (cm *ConfigMemory) ChangedSince(gen uint64, fn func(FAR)) {
	for i, st := range cm.stamps {
		if st > gen {
			far, err := cm.dev.FARAt(i)
			if err != nil {
				panic(err) // i ranges over the device's own frames
			}
			fn(far)
		}
	}
}

// FlipBit inverts a single configuration bit in place — the soft-error
// model of the fault-injection campaign (an SEU flips one SRAM cell).
// Unlike WriteFrame it does not count as configuration activity: nothing
// streamed through the configuration port.
func (cm *ConfigMemory) FlipBit(far FAR, word int, bit uint) error {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return err
	}
	if word < 0 || word >= cm.dev.FrameLen() || bit > 31 {
		return fmt.Errorf("fabric: bit (%d,%d) outside the %d-word frame geometry",
			word, bit, cm.dev.FrameLen())
	}
	cm.frames[i][word] ^= 1 << bit
	cm.touch(i)
	return nil
}

// frame returns the live frame slice (internal use).
func (cm *ConfigMemory) frame(far FAR) []uint32 {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		panic(err)
	}
	return cm.frames[i]
}

// Clone returns a deep copy — used to snapshot the static design baseline
// after the initial full configuration. The copy carries the generation
// stamps.
func (cm *ConfigMemory) Clone() *ConfigMemory {
	out := NewConfigMemory(cm.dev)
	for i, f := range cm.frames {
		copy(out.frames[i], f)
	}
	copy(out.stamps, cm.stamps)
	out.gen = cm.gen
	out.writes = cm.writes
	return out
}

// StaticWordsEqual reports whether the frame at far holds the same static
// words in cm and other (a memory of the same device): every word outside
// the row bands of those regions that enclose the frame's column. Band
// words of an enclosing region may differ freely.
func (cm *ConfigMemory) StaticWordsEqual(other *ConfigMemory, far FAR, regions ...Region) bool {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		panic(err)
	}
	a, b := cm.frames[i], other.frames[i]
	for wi := 0; wi < len(a); wi++ {
		if a[wi] != b[wi] {
			end := cm.dev.bandEnd(far, wi, regions)
			if end == 0 {
				return false
			}
			wi = end - 1 // the rest of the band may differ too
		}
	}
	return true
}

// bandEnd returns the end of a row band holding word wi of the frame at
// far, among the regions enclosing the frame's column, or 0 when no such
// band holds the word.
func (d *Device) bandEnd(far FAR, wi int, regions []Region) int {
	for _, r := range regions {
		lo, hi := d.RowWordRange(r.Row0, r.H)
		if wi < lo || wi >= hi {
			continue
		}
		if far.Block == BlockBRAM && d.bramEnclosed(r, far.Major) ||
			far.Block == BlockCLB && r.ContainsCol(far.Major) {
			return hi
		}
	}
	return 0
}

// fnv1a64 is the 64-bit FNV-1a hash, used for content binding. It is not a
// cryptographic hash; it binds configuration contents to behavioural models.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds the word's four bytes, low byte first.
func fnvWord(h uint64, w uint32) uint64 {
	h = (h ^ uint64(w&0xFF)) * fnvPrime
	h = (h ^ uint64(w>>8&0xFF)) * fnvPrime
	h = (h ^ uint64(w>>16&0xFF)) * fnvPrime
	return (h ^ uint64(w>>24)) * fnvPrime
}

// fnvWords folds the words into h in order.
func fnvWords(h uint64, ws []uint32) uint64 {
	for _, w := range ws {
		h = fnvWord(h, w)
	}
	return h
}

// RegionHash hashes the configuration bits owned by the region: for every
// enclosed CLB column, the frame words of the row band across all frames of
// the column; for every enclosed BRAM column, the same band of its content
// frames. The hash identifies which circuit is currently configured in the
// region.
func (cm *ConfigMemory) RegionHash(r Region) uint64 {
	h := uint64(fnvOffset)
	lo, hi := cm.dev.RowWordRange(r.Row0, r.H)
	for col := r.Col0; col < r.Col0+r.W; col++ {
		for minor := 0; minor < FramesPerCLBColumn; minor++ {
			h = fnvWords(h, cm.frame(FAR{Block: BlockCLB, Major: col, Minor: minor})[lo:hi])
		}
	}
	for _, bcol := range cm.dev.BRAMColumns(r) {
		for minor := 0; minor < FramesPerBRAMColumn; minor++ {
			h = fnvWords(h, cm.frame(FAR{Block: BlockBRAM, Major: bcol, Minor: minor})[lo:hi])
		}
	}
	return h
}

// RegionFramesHash hashes the region's frames given in region order — the
// frames of every region CLB column, then those of every enclosed BRAM
// column, as RegionHash visits them — with RegionHash's fold: it equals
// the RegionHash of a memory holding those frames. It panics unless
// frames holds exactly the region's frames.
func (d *Device) RegionFramesHash(r Region, frames [][]uint32) uint64 {
	want := r.W * FramesPerCLBColumn
	for i := range d.BRAMColPos {
		if d.bramEnclosed(r, i) {
			want += FramesPerBRAMColumn
		}
	}
	if len(frames) != want {
		panic(fmt.Sprintf("fabric: %d frames given for region %s, it has %d", len(frames), r.Name, want))
	}
	h := uint64(fnvOffset)
	lo, hi := d.RowWordRange(r.Row0, r.H)
	for _, f := range frames {
		h = fnvWords(h, f[lo:hi])
	}
	return h
}

// StaticHash hashes every configuration bit not owned by any of the given
// regions. The platform uses it to detect partial configurations that
// disturb the static design (the hazard BitLinker exists to prevent).
//
// Words are hashed frame by frame in device order (CLB columns, then BRAM
// columns), skipping the row-band words of every region that encloses the
// column. Which words a column skips is the same for all of its frames, so
// it is worked out once per column into a reused mask.
func (cm *ConfigMemory) StaticHash(regions ...Region) uint64 {
	h := uint64(fnvOffset)
	skip := make([]bool, cm.dev.FrameLen())
	for col := 0; col < cm.dev.Cols; col++ {
		clear(skip)
		for _, r := range regions {
			if r.ContainsCol(col) {
				cm.dev.markRowBand(skip, r)
			}
		}
		h = cm.hashColumn(h, BlockCLB, col, skip)
	}
	for bcol := range cm.dev.BRAMColPos {
		clear(skip)
		for _, r := range regions {
			if cm.dev.bramEnclosed(r, bcol) {
				cm.dev.markRowBand(skip, r)
			}
		}
		h = cm.hashColumn(h, BlockBRAM, bcol, skip)
	}
	return h
}

// markRowBand sets skip for the frame words of the region's row band.
func (d *Device) markRowBand(skip []bool, r Region) {
	lo, hi := d.RowWordRange(r.Row0, r.H)
	for wi := max(lo, 0); wi < min(hi, len(skip)); wi++ {
		skip[wi] = true
	}
}

// hashColumn folds the words not marked in skip of every frame of one
// column into h.
func (cm *ConfigMemory) hashColumn(h uint64, b BlockType, major int, skip []bool) uint64 {
	for minor := 0; minor < FramesFor(b); minor++ {
		f := cm.frame(FAR{Block: b, Major: major, Minor: minor})
		for wi, w := range f {
			if !skip[wi] {
				h = fnvWord(h, w)
			}
		}
	}
	return h
}

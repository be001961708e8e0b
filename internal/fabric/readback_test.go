package fabric

import (
	"math/rand"
	"slices"
	"testing"
)

// fillRandom overwrites every word of the memory with seeded random data.
func fillRandom(cm *ConfigMemory, rng *rand.Rand) {
	for _, f := range cm.frames {
		for i := range f {
			f[i] = rng.Uint32()
		}
	}
}

// regionFrames reads the region's frames in RegionHash order.
func regionFrames(t *testing.T, cm *ConfigMemory, r Region) [][]uint32 {
	t.Helper()
	var out [][]uint32
	read := func(far FAR) {
		f, err := cm.ReadFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	for col := r.Col0; col < r.Col0+r.W; col++ {
		for minor := 0; minor < FramesPerCLBColumn; minor++ {
			read(FAR{Block: BlockCLB, Major: col, Minor: minor})
		}
	}
	for _, bcol := range cm.dev.BRAMColumns(r) {
		for minor := 0; minor < FramesPerBRAMColumn; minor++ {
			read(FAR{Block: BlockBRAM, Major: bcol, Minor: minor})
		}
	}
	return out
}

// TestRegionFramesHashMatchesRegionHash: hashing a region's frames handed
// over in region order gives the memory's RegionHash, on random contents
// and random regions (some enclosing BRAM columns); a frame list of the
// wrong size panics instead of hashing something else.
func TestRegionFramesHashMatchesRegionHash(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []*Device{XC2VP7(), XC2VP30()} {
		cm := NewConfigMemory(d)
		for trial := 0; trial < 16; trial++ {
			if trial%4 == 0 {
				fillRandom(cm, rng)
			}
			r := randRegion(rng, d, trial%2 == 0)
			frames := regionFrames(t, cm, r)
			if got, want := d.RegionFramesHash(r, frames), cm.RegionHash(r); got != want {
				t.Fatalf("%s region %v: RegionFramesHash %#x, RegionHash %#x", d.Name, r, got, want)
			}
		}
		r := DynamicRegion32()
		frames := regionFrames(t, cm, r)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: RegionFramesHash accepted %d of %d frames", d.Name, len(frames)-1, len(frames))
				}
			}()
			d.RegionFramesHash(r, frames[1:])
		}()
	}
}

// TestReadFrameInto copies the frame into the caller's buffer and refuses
// a buffer of any other length than one frame, and an invalid address.
func TestReadFrameInto(t *testing.T) {
	d := XC2VP7()
	cm := NewConfigMemory(d)
	fillRandom(cm, rand.New(rand.NewSource(3)))
	far := FAR{Block: BlockBRAM, Major: 1, Minor: 7}
	want, err := cm.ReadFrame(far)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, d.FrameLen())
	if err := cm.ReadFrameInto(buf, far); err != nil || !slices.Equal(buf, want) {
		t.Fatalf("ReadFrameInto = %v, frame equal %v", err, slices.Equal(buf, want))
	}
	for _, n := range []int{0, d.FrameLen() - 1, d.FrameLen() + 1} {
		if err := cm.ReadFrameInto(make([]uint32, n), far); err == nil {
			t.Errorf("ReadFrameInto accepted a %d-word buffer (frame length %d)", n, d.FrameLen())
		}
	}
	if err := cm.ReadFrameInto(buf, FAR{Block: BlockCLB, Major: d.Cols}); err == nil {
		t.Error("ReadFrameInto accepted an out-of-range address")
	}
}

// changed lists the frames ChangedSince visits.
func changed(cm *ConfigMemory, gen uint64) []FAR {
	var fars []FAR
	cm.ChangedSince(gen, func(far FAR) { fars = append(fars, far) })
	return fars
}

// TestGenerationStamps: WriteFrame and FlipBit advance the generation and
// stamp their frame, ChangedSince visits exactly the frames touched after
// a generation in device order, and Clone carries the stamps without
// sharing them.
func TestGenerationStamps(t *testing.T) {
	d := XC2VP7()
	cm := NewConfigMemory(d)
	if cm.Generation() != 0 || len(changed(cm, 0)) != 0 {
		t.Fatal("fresh memory reports mutations")
	}
	a := FAR{Block: BlockCLB, Major: 9, Minor: 2}
	b := FAR{Block: BlockBRAM, Major: 0, Minor: 5}
	c := FAR{Block: BlockCLB, Major: 1, Minor: 0}
	if err := cm.WriteFrame(a, make([]uint32, d.FrameLen())); err != nil {
		t.Fatal(err)
	}
	g1 := cm.Generation()
	if err := cm.FlipBit(b, 4, 9); err != nil {
		t.Fatal(err)
	}
	if err := cm.WriteFrame(c, make([]uint32, d.FrameLen())); err != nil {
		t.Fatal(err)
	}
	if got, want := changed(cm, 0), []FAR{c, a, b}; !slices.Equal(got, want) {
		t.Fatalf("ChangedSince(0) = %v, want %v", got, want)
	}
	if got, want := changed(cm, g1), []FAR{c, b}; !slices.Equal(got, want) {
		t.Fatalf("ChangedSince(%d) = %v, want %v", g1, got, want)
	}
	if got := changed(cm, cm.Generation()); len(got) != 0 {
		t.Fatalf("ChangedSince(current) = %v, want none", got)
	}

	snap := cm.Clone()
	if snap.Generation() != cm.Generation() {
		t.Fatalf("clone generation %d, original %d", snap.Generation(), cm.Generation())
	}
	if got, want := changed(snap, g1), changed(cm, g1); !slices.Equal(got, want) {
		t.Fatalf("clone ChangedSince(%d) = %v, original %v", g1, got, want)
	}
	g := cm.Generation()
	if err := snap.FlipBit(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if cm.Generation() != g || len(changed(cm, g)) != 0 {
		t.Fatal("mutating the clone moved the original's stamps")
	}
}

// TestStaticWordsEqualMatchesPerWord compares the per-frame static-word
// comparison with the per-word region oracle of the static hash: random
// memories that differ in random words, under 1-2 random regions.
func TestStaticWordsEqualMatchesPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []*Device{XC2VP7(), XC2VP30()} {
		a := NewConfigMemory(d)
		fillRandom(a, rng)
		for trial := 0; trial < 8; trial++ {
			regions := []Region{randRegion(rng, d, true)}
			if trial%2 == 1 {
				regions = append(regions, randRegion(rng, d, false))
			}
			b := a.Clone()
			for _, f := range b.frames {
				if rng.Intn(3) == 0 {
					f[rng.Intn(len(f))] ^= 1 << rng.Intn(32)
				}
			}
			for i := range a.frames {
				far, err := d.FARAt(i)
				if err != nil {
					t.Fatal(err)
				}
				want := true
				for wi := range a.frames[i] {
					bcol := 0
					if far.Block == BlockBRAM {
						bcol = far.Major
					}
					if a.frames[i][wi] != b.frames[i][wi] &&
						!wordInRegions(d, regions, far.Major, wi, far.Block == BlockBRAM, bcol) {
						want = false
					}
				}
				if got := a.StaticWordsEqual(b, far, regions...); got != want {
					t.Fatalf("%s %v regions %v: StaticWordsEqual %v, per-word %v", d.Name, far, regions, got, want)
				}
			}
		}
	}
}

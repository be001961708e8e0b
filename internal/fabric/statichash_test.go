package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// staticHashPerWord is the reference static hash: it asks wordInRegions
// about every word of every frame. StaticHash must return the same value.
func staticHashPerWord(cm *ConfigMemory, regions []Region) uint64 {
	h := uint64(fnvOffset)
	for col := 0; col < cm.dev.Cols; col++ {
		for minor := 0; minor < FramesPerCLBColumn; minor++ {
			f := cm.frame(FAR{Block: BlockCLB, Major: col, Minor: minor})
			for wi, w := range f {
				if wordInRegions(cm.dev, regions, col, wi, false, 0) {
					continue
				}
				h = fnvWord(h, w)
			}
		}
	}
	for bcol := range cm.dev.BRAMColPos {
		for minor := 0; minor < FramesPerBRAMColumn; minor++ {
			f := cm.frame(FAR{Block: BlockBRAM, Major: bcol, Minor: minor})
			for wi, w := range f {
				if wordInRegions(cm.dev, regions, 0, wi, true, bcol) {
					continue
				}
				h = fnvWord(h, w)
			}
		}
	}
	return h
}

// wordInRegions reports whether frame word index wi of the given column
// belongs to one of the regions.
func wordInRegions(d *Device, regions []Region, col, wi int, bram bool, bcol int) bool {
	for _, r := range regions {
		lo, hi := d.RowWordRange(r.Row0, r.H)
		if wi < lo || wi >= hi {
			continue
		}
		if bram {
			for _, c := range d.BRAMColumns(r) {
				if c == bcol {
					return true
				}
			}
			continue
		}
		if r.ContainsCol(col) {
			return true
		}
	}
	return false
}

// TestFNVWordMatchesStdlib checks the unrolled fnvWord against the
// standard library's FNV-1a over the word's bytes, low byte first.
func TestFNVWordMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := make([]uint32, 1000)
	buf := make([]byte, 4*len(words))
	h := uint64(fnvOffset)
	for i := range words {
		words[i] = rng.Uint32()
		binary.LittleEndian.PutUint32(buf[4*i:], words[i])
		h = fnvWord(h, words[i])
	}
	ref := fnv.New64a()
	ref.Write(buf)
	if got, want := h, ref.Sum64(); got != want {
		t.Fatalf("fnvWord fold = %#x, hash/fnv = %#x", got, want)
	}
}

// randRegion returns a random rectangle of the device's CLB grid. With
// bram set it is widened to enclose a random BRAM column.
func randRegion(rng *rand.Rand, d *Device, bram bool) Region {
	r := Region{Name: "r", Col0: rng.Intn(d.Cols), Row0: rng.Intn(d.Rows)}
	r.W = 1 + rng.Intn(d.Cols-r.Col0)
	r.H = 1 + rng.Intn(d.Rows-r.Row0)
	if bram {
		p := d.BRAMColPos[rng.Intn(len(d.BRAMColPos))]
		r.Col0 = min(r.Col0, p)
		r.W = max(r.Col0+r.W, p+2) - r.Col0
	}
	return r
}

// TestStaticHashMatchesPerWord compares the per-column mask hash against
// the per-word reference on random contents and 0-3 random regions,
// including regions that enclose BRAM columns.
func TestStaticHashMatchesPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []*Device{XC2VP7(), XC2VP30()} {
		cm := NewConfigMemory(d)
		withBRAM := 0
		for trial := 0; trial < 24; trial++ {
			if trial%6 == 0 {
				for _, f := range cm.frames {
					for i := range f {
						f[i] = rng.Uint32()
					}
				}
			}
			regions := make([]Region, trial%4)
			for i := range regions {
				regions[i] = randRegion(rng, d, rng.Intn(2) == 0)
				if len(d.BRAMColumns(regions[i])) > 0 {
					withBRAM++
				}
			}
			if got, want := cm.StaticHash(regions...), staticHashPerWord(cm, regions); got != want {
				t.Fatalf("%s trial %d regions %v: StaticHash %#x, per-word %#x", d.Name, trial, regions, got, want)
			}
		}
		if withBRAM == 0 {
			t.Fatalf("%s: no trial enclosed a BRAM column", d.Name)
		}
	}
}

var staticHashSink uint64

// BenchmarkStaticHash measures the static hash of a randomly filled
// XC2VP30 excluding 0, 1 and 2 dynamic regions.
func BenchmarkStaticHash(b *testing.B) {
	d := XC2VP30()
	cm := NewConfigMemory(d)
	rng := rand.New(rand.NewSource(1))
	for _, f := range cm.frames {
		for i := range f {
			f[i] = rng.Uint32()
		}
	}
	all := []Region{DynamicRegion64(), DynamicRegion64B()}
	for n := 0; n <= len(all); n++ {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				staticHashSink = cm.StaticHash(all[:n]...)
			}
		})
	}
}

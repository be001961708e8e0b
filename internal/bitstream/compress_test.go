package bitstream

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// buildWithBase sets up an assumed image and a stream rewriting some of its
// frames: frame 0 is mostly kept from the assumed content (a band change),
// frame 1 is a duplicate of frame 0 at another address, frame 2 is fresh
// random content.
func compressFixture(t testing.TB, seed int64) (*fabric.Device, *Stream, *fabric.ConfigMemory, [][]uint32, []fabric.FAR) {
	t.Helper()
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(seed))
	flen := dev.FrameLen()
	assumed := fabric.NewConfigMemory(dev)
	// Static-looking fill in the assumed image.
	fars := []fabric.FAR{
		{Block: fabric.BlockCLB, Major: 2, Minor: 0},
		{Block: fabric.BlockCLB, Major: 2, Minor: 1},
		{Block: fabric.BlockCLB, Major: 5, Minor: 3},
	}
	for _, far := range fars {
		if err := assumed.WriteFrame(far, randFrame(rng, flen)); err != nil {
			t.Fatal(err)
		}
	}
	// Target frames: band change in the middle of assumed frame 0, an exact
	// duplicate of it, and fresh content.
	base, _ := assumed.ReadFrame(fars[0])
	banded := append([]uint32(nil), base...)
	for i := flen / 3; i < flen/2; i++ {
		banded[i] = rng.Uint32()
	}
	frames := [][]uint32{banded, append([]uint32(nil), banded...), randFrame(rng, flen)}
	var runs []FrameRun
	for i, far := range fars {
		runs = append(runs, FrameRun{Start: far, Frames: [][]uint32{frames[i]}})
	}
	s, err := Build(dev, runs)
	if err != nil {
		t.Fatal(err)
	}
	return dev, s, assumed, frames, fars
}

func TestCompressRoundTrip(t *testing.T) {
	dev, s, assumed, frames, fars := compressFixture(t, 11)
	c, err := Compress(dev, s, assumed, len(frames))
	if err != nil {
		t.Fatal(err)
	}
	if c.RawWords != len(s.Words) {
		t.Fatalf("RawWords = %d, want %d", c.RawWords, len(s.Words))
	}
	if c.SizeBytes() >= s.SizeBytes() {
		t.Fatalf("compressed %d B not smaller than raw %d B", c.SizeBytes(), s.SizeBytes())
	}
	// Decode against a live image equal to the assumed one (the hazard-gate
	// precondition) and check frame-byte identity.
	cm := assumed.Clone()
	l := NewLoader(cm)
	if err := c.Decode(l); err != nil {
		t.Fatal(err)
	}
	if !l.Done() {
		t.Fatal("loader not done after decoded stream")
	}
	for i, far := range fars {
		got, err := cm.ReadFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		if !wordsEqual(got, frames[i]) {
			t.Fatalf("frame %d at %v differs after decode", i, far)
		}
	}
}

func TestCompressDecodedWordsIdentical(t *testing.T) {
	dev, s, assumed, _, _ := compressFixture(t, 12)
	c, err := Compress(dev, s, assumed, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(assumed.Clone())
	d := NewDecoder(l)
	for _, w := range c.Words {
		if _, err := d.WriteWord(w); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Done() {
		t.Fatal("decoder not done")
	}
	if !wordsEqual(d.out, s.Words) {
		t.Fatalf("decoded stream differs from original (%d vs %d words)", len(d.out), len(s.Words))
	}
}

func TestCompressTruncationNeverCompletes(t *testing.T) {
	dev, s, assumed, _, _ := compressFixture(t, 13)
	c, err := Compress(dev, s, assumed, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(c.Words) / 2, len(c.Words) - 1} {
		l := NewLoader(assumed.Clone())
		d := NewDecoder(l)
		for _, w := range c.Words[:cut] {
			if _, err := d.WriteWord(w); err != nil {
				t.Fatalf("truncated container at %d errored early: %v", cut, err)
			}
		}
		// The loader may have seen DESYNC already (only trailing padding
		// was cut); the decoder's done flag is what the load path gates
		// on, and it must stay false.
		if d.Done() {
			t.Fatalf("truncated container at %d reported decoder done", cut)
		}
	}
}

func TestCompressBitFlipRejected(t *testing.T) {
	dev, s, assumed, _, _ := compressFixture(t, 14)
	c, err := Compress(dev, s, assumed, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	rejected := 0
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(c.Words))
		bit := uint32(1) << rng.Intn(32)
		words := append([]uint32(nil), c.Words...)
		words[i] ^= bit
		l := NewLoader(assumed.Clone())
		d := NewDecoder(l)
		bad := false
		for _, w := range words {
			if _, err := d.WriteWord(w); err != nil {
				bad = true
				break
			}
		}
		if !bad && d.Done() && l.Done() && l.Err() == nil {
			// A flip in a don't-care bit (e.g. an unused FAR field bit)
			// may decode successfully — acceptable only when the decoded
			// stream is byte-identical to the original. Silent
			// misconfiguration is the failure mode that must not exist.
			if !wordsEqual(d.out, s.Words) {
				t.Fatalf("bit flip word %d bit %#x decoded silently to different content", i, bit)
			}
		}
		rejected++
	}
	if rejected != 200 {
		t.Fatalf("ran %d trials", rejected)
	}
}

func TestCompressCMRefsSkipRewrittenFrames(t *testing.T) {
	// A stream that writes the same FAR twice (two packets): the second
	// write must not CM-reference the frame, since by then the live frame
	// holds the first packet's content.
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(21))
	flen := dev.FrameLen()
	far := fabric.FAR{Block: fabric.BlockCLB, Major: 4, Minor: 2}
	assumed := fabric.NewConfigMemory(dev)
	orig := randFrame(rng, flen)
	if err := assumed.WriteFrame(far, orig); err != nil {
		t.Fatal(err)
	}
	first := randFrame(rng, flen)
	// Second write mostly matches the ASSUMED content — a naive encoder
	// would CM-reference it, but the live frame then holds `first`.
	second := append([]uint32(nil), orig...)
	second[0] ^= 1
	s, err := Build(dev, []FrameRun{
		{Start: far, Frames: [][]uint32{first}},
		{Start: far, Frames: [][]uint32{second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(dev, s, assumed, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm := assumed.Clone()
	l := NewLoader(cm)
	if err := c.Decode(l); err != nil {
		t.Fatal(err)
	}
	got, _ := cm.ReadFrame(far)
	if !wordsEqual(got, second) {
		t.Fatal("second write of a rewritten frame decoded wrong content")
	}
}

// TestDecodeKeepReferencesAllocFree decodes a container whose frames are
// band edits of the live image, so most of every frame is a KEEP (CM)
// reference into configuration memory, and requires the decode to
// allocate less than once per reference: KEEP reads go through the
// decoder's one-frame buffer.
func TestDecodeKeepReferencesAllocFree(t *testing.T) {
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(41))
	flen := dev.FrameLen()
	assumed := fabric.NewConfigMemory(dev)
	start := fabric.FAR{Block: fabric.BlockCLB, Major: 3}
	var orig, frames [][]uint32
	far := start
	for i := 0; i < 64; i++ {
		f := randFrame(rng, flen)
		orig = append(orig, f)
		if err := assumed.WriteFrame(far, f); err != nil {
			t.Fatal(err)
		}
		band := append([]uint32(nil), f...)
		for w := flen / 3; w < flen/2; w++ {
			band[w] = rng.Uint32()
		}
		frames = append(frames, band)
		far, _ = dev.NextFAR(far)
	}
	s, err := Build(dev, []FrameRun{{Start: start, Frames: frames}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(dev, s, assumed, len(frames))
	if err != nil {
		t.Fatal(err)
	}
	keeps := 0
	for i := 3; i < len(c.Words); {
		switch w := c.Words[i]; int(w >> 24) {
		case opLit:
			i += 1 + int(w&maxLitRun)
		case opCM:
			keeps++
			i += 2
		default:
			i += 2
		}
	}
	if keeps < len(frames) {
		t.Fatalf("container holds %d KEEP references, want at least one per frame (%d)", keeps, len(frames))
	}
	live := assumed.Clone()
	l := NewLoader(live)
	allocs := testing.AllocsPerRun(5, func() {
		// Every run decodes against the assumed image.
		far := start
		for _, f := range orig {
			if err := live.WriteFrame(far, f); err != nil {
				t.Fatal(err)
			}
			far, _ = dev.NextFAR(far)
		}
		l.Reset()
		if err := c.Decode(l); err != nil || !l.Done() {
			t.Fatalf("decode: done %v, %v", l.Done(), err)
		}
	})
	if allocs >= float64(keeps) {
		t.Fatalf("decode allocates %.0f times for %d KEEP references", allocs, keeps)
	}
}

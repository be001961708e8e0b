package bitstream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// serialStream is the reference fold: crcUpdateSerial over every word.
func serialStream(crc uint16, reg Reg, words []uint32) uint16 {
	for _, w := range words {
		crc = crcUpdateSerial(crc, reg, w)
	}
	return crc
}

// TestCRCTableMatchesSerial checks the table-driven update against the
// bit-serial shift register on random (crc, reg, word) triples, including
// register values above the 5 address bits the CRC folds in.
func TestCRCTableMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 1<<20; i++ {
		crc, reg, w := uint16(rng.Uint32()), Reg(rng.Intn(64)), rng.Uint32()
		if got, want := crcUpdate(crc, reg, w), crcUpdateSerial(crc, reg, w); got != want {
			t.Fatalf("crcUpdate(%#04x, %d, %#08x) = %#04x, serial %#04x", crc, reg, w, got, want)
		}
	}
}

// TestCRCStreamMatchesSerial checks crcStream and FrameCRC against a
// serial fold over random streams, the empty stream included.
func TestCRCStreamMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		words := make([]uint32, rng.Intn(300))
		for i := range words {
			words[i] = rng.Uint32()
		}
		crc, reg := uint16(rng.Uint32()), Reg(rng.Intn(64))
		if got, want := crcStream(crc, reg, words), serialStream(crc, reg, words); got != want {
			t.Fatalf("trial %d: crcStream over %d words = %#04x, serial %#04x", trial, len(words), got, want)
		}
		if got, want := FrameCRC(crc, words), serialStream(crc, RegFDRI, words); got != want {
			t.Fatalf("trial %d: FrameCRC over %d words = %#04x, serial %#04x", trial, len(words), got, want)
		}
	}
	if got := FrameCRC(0xBEEF, nil); got != 0xBEEF {
		t.Fatalf("FrameCRC of the empty stream = %#04x, want the running value", got)
	}
}

// TestCRCStreamTails pins every tail length of the four-word fold: every
// stream length 0-16 under every register value 0-63, with random running
// CRCs and words, against the serial fold.
func TestCRCStreamTails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	words := make([]uint32, 16)
	for n := 0; n <= len(words); n++ {
		for reg := Reg(0); reg < 64; reg++ {
			for trial := 0; trial < 8; trial++ {
				for i := range words[:n] {
					words[i] = rng.Uint32()
				}
				crc := uint16(rng.Uint32())
				if got, want := crcStream(crc, reg, words[:n]), serialStream(crc, reg, words[:n]); got != want {
					t.Fatalf("crcStream(%#04x, %d, %d words) = %#04x, serial %#04x", crc, reg, n, got, want)
				}
			}
		}
	}
}

// FuzzCRCStream asserts that the four-word stream fold equals the serial
// fold for any stream: the fuzz bytes are the words, big-endian, with any
// trailing partial word dropped.
func FuzzCRCStream(f *testing.F) {
	f.Add(uint16(0), uint8(RegFDRI), []byte{})
	f.Add(uint16(0xFFFF), uint8(63), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1})
	f.Add(uint16(0x8005), uint8(RegFAR), bytes.Repeat([]byte{0xAA, 0x99, 0x55, 0x66}, 9))
	f.Fuzz(func(t *testing.T, crc uint16, reg uint8, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		if got, want := crcStream(crc, Reg(reg), words), serialStream(crc, Reg(reg), words); got != want {
			t.Fatalf("crcStream(%#04x, %d, %d words) = %#04x, serial %#04x", crc, reg, len(words), got, want)
		}
	})
}

// FuzzCRC asserts that the table-driven update equals the bit-serial one.
func FuzzCRC(f *testing.F) {
	f.Add(uint16(0), uint8(RegFDRI), uint32(0))
	f.Add(uint16(0xFFFF), uint8(63), uint32(0xFFFFFFFF))
	f.Add(uint16(0x8005), uint8(RegFAR), uint32(0xAA995566))
	f.Fuzz(func(t *testing.T, crc uint16, reg uint8, w uint32) {
		if got, want := crcUpdate(crc, Reg(reg), w), crcUpdateSerial(crc, Reg(reg), w); got != want {
			t.Fatalf("crcUpdate(%#04x, %d, %#08x) = %#04x, serial %#04x", crc, reg, w, got, want)
		}
	})
}

var crcSink uint16

// BenchmarkFrameCRC folds a 64K-word stream.
func BenchmarkFrameCRC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := make([]uint32, 1<<16)
	for i := range words {
		words[i] = rng.Uint32()
	}
	b.SetBytes(int64(4 * len(words)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crcSink = FrameCRC(0, words)
	}
}

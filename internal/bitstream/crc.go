package bitstream

// The configuration logic maintains a running 16-bit CRC over every
// register-write data word together with the register address, as on
// Virtex-II (polynomial x^16 + x^15 + x^2 + 1, i.e. 0x8005). Writing the
// expected value to the CRC register checks it; a mismatch aborts
// configuration. The CmdRCRC command resets it.
//
// The hardware shifts the 37-bit value {addr[4:0], data[31:0]} in one bit
// at a time; crcUpdateSerial is that shift register, kept as the
// definition. Every step of it is a shift or an XOR, so one update is a
// linear map over GF(2) of the old CRC, the register address and the data
// word, each taken separately: the new CRC is the XOR of the images of the
// two CRC bytes, the four data bytes and the 5-bit address. crcUpdate
// looks those seven images up in tables built from crcUpdateSerial at
// package init, and the tests compare the two on random inputs.
//
// A stream folds four words per step by the same linearity. Write T for
// the map of the CRC bytes, D for that of the data bytes and R for the
// register image; one update is c' = T(c) ^ D(w) ^ R, so four are
//
//	c4 = T⁴(c) ^ T³D(w0) ^ T²D(w1) ^ TD(w2) ^ D(w3) ^ (T³R ^ T²R ^ TR ^ R).
//
// crcStream looks up T⁴ of the two CRC bytes and T^(3-j)∘D of every byte of
// word j in tables built from the one-word tables, and computes the
// register term once per stream. Only two lookups depend on the previous
// step, where the one-word fold waits on its own result every word.

const crcPoly uint32 = 0x8005

// crcUpdateSerial folds one (register, data) pair into the running CRC,
// shifting the 37-bit value {addr[4:0], data[31:0]} in LSB first. It
// generates the lookup tables and is the oracle crcUpdate is tested
// against.
func crcUpdateSerial(crc uint16, reg Reg, data uint32) uint16 {
	val := uint64(reg&0x1F)<<32 | uint64(data)
	c := uint32(crc)
	for i := 0; i < 37; i++ {
		bit := uint32(val>>uint(i)) & 1
		msb := c >> 15 & 1
		c = c<<1 | (bit ^ msb)
		if msb != 0 {
			c ^= crcPoly // feedback taps (x^15, x^2 folded via poly)
		}
		c &= 0xFFFF
	}
	return uint16(c)
}

var (
	crcTabCRC  [2][256]uint16 // image of CRC byte k (k=0 low)
	crcTabData [4][256]uint16 // image of data byte k (k=0 low)
	crcTabReg  [32]uint16     // image of the register address

	crcTab4CRC  [2][256]uint16  // T⁴ of CRC byte k
	crcTab4Data [16][256]uint16 // T^(3-j)∘D of data byte k of word j, at 4j+k
)

func init() {
	for b := 0; b < 256; b++ {
		for k := range crcTabCRC {
			crcTabCRC[k][b] = crcUpdateSerial(uint16(b)<<(8*k), 0, 0)
		}
		for k := range crcTabData {
			crcTabData[k][b] = crcUpdateSerial(0, 0, uint32(b)<<(8*k))
		}
	}
	for r := range crcTabReg {
		crcTabReg[r] = crcUpdateSerial(0, Reg(r), 0)
	}
	// The four-word tables apply T, the CRC part of one update, to the
	// one-word images.
	for b := 0; b < 256; b++ {
		for k := range crcTabCRC {
			crcTab4CRC[k][b] = crcPowT(uint16(b)<<(8*k), 4)
		}
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				crcTab4Data[4*j+k][b] = crcPowT(crcTabData[k][b], 3-j)
			}
		}
	}
}

// crcPowT applies T, the CRC part of one update, n times to c.
func crcPowT(c uint16, n int) uint16 {
	for ; n > 0; n-- {
		c = crcWord(c, 0)
	}
	return c
}

// crcUpdate folds one (register, data) pair into the running CRC; it equals
// crcUpdateSerial(crc, reg, data).
func crcUpdate(crc uint16, reg Reg, data uint32) uint16 {
	return crcWord(crc, data) ^ crcTabReg[reg&0x1F]
}

// crcWord is the CRC and data part of one update, without the register
// term.
func crcWord(crc uint16, data uint32) uint16 {
	return crcTabCRC[0][crc&0xFF] ^ crcTabCRC[1][crc>>8] ^
		crcTabData[0][data&0xFF] ^ crcTabData[1][data>>8&0xFF] ^
		crcTabData[2][data>>16&0xFF] ^ crcTabData[3][data>>24]
}

// crcStream folds a sequence of data words written to one register, four
// words per step and the tail one at a time.
func crcStream(crc uint16, reg Reg, words []uint32) uint16 {
	r := crcTabReg[reg&0x1F]
	r4 := r
	for i := 0; i < 3; i++ {
		r4 = crcPowT(r4, 1) ^ r // Horner: T³R ^ T²R ^ TR ^ R
	}
	d := &crcTab4Data
	for ; len(words) >= 4; words = words[4:] {
		w0, w1, w2, w3 := words[0], words[1], words[2], words[3]
		crc = crcTab4CRC[0][crc&0xFF] ^ crcTab4CRC[1][crc>>8] ^ r4 ^
			d[0][w0&0xFF] ^ d[1][w0>>8&0xFF] ^ d[2][w0>>16&0xFF] ^ d[3][w0>>24] ^
			d[4][w1&0xFF] ^ d[5][w1>>8&0xFF] ^ d[6][w1>>16&0xFF] ^ d[7][w1>>24] ^
			d[8][w2&0xFF] ^ d[9][w2>>8&0xFF] ^ d[10][w2>>16&0xFF] ^ d[11][w2>>24] ^
			d[12][w3&0xFF] ^ d[13][w3>>8&0xFF] ^ d[14][w3>>16&0xFF] ^ d[15][w3>>24]
	}
	for _, w := range words {
		crc = crcWord(crc, w) ^ r
	}
	return crc
}

// FrameCRC folds one frame's words into a running readback CRC, exactly as
// the configuration logic would see them arriving at the FDRI register. A
// readback scrubber folds every frame of a region's spans and compares the
// result against the value recorded when the region was last verified: the
// CRC16 catches every single-bit upset.
func FrameCRC(crc uint16, words []uint32) uint16 {
	return crcStream(crc, RegFDRI, words)
}

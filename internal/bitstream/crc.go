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

// crcStream folds a sequence of data words written to one register.
func crcStream(crc uint16, reg Reg, words []uint32) uint16 {
	r := crcTabReg[reg&0x1F]
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

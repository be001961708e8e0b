package memctl

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// byteOracle is a flat, byte-at-a-time model of Memory's functional
// semantics: out-of-range reads float high, out-of-range writes are
// dropped, and a page is allocated exactly when a write touches it.
type byteOracle struct {
	b       []byte
	written map[uint32]bool
}

func newByteOracle(size int) *byteOracle {
	return &byteOracle{b: make([]byte, size), written: make(map[uint32]bool)}
}

func (o *byteOracle) peek(addr uint32, size int) uint64 {
	if int(addr)+size > len(o.b) {
		return ^uint64(0)
	}
	var v uint64
	for i := 0; i < size; i++ {
		v = v<<8 | uint64(o.b[int(addr)+i])
	}
	return v
}

func (o *byteOracle) poke(addr uint32, val uint64, size int) {
	if int(addr)+size > len(o.b) {
		return
	}
	for i := size - 1; i >= 0; i-- {
		o.b[int(addr)+i] = byte(val)
		o.written[(addr+uint32(i))>>pageBits] = true
		val >>= 8
	}
}

// check compares every byte and the set of allocated pages.
func (o *byteOracle) check(t *testing.T, m *Memory, what string) {
	t.Helper()
	got, err := m.ReadBytes(0, len(o.b))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, o.b) {
		t.Fatalf("%s: contents diverge from the byte oracle", what)
	}
	if len(m.pages) != len(o.written) {
		t.Fatalf("%s: %d pages allocated, oracle wrote %d", what, len(m.pages), len(o.written))
	}
	for idx := range m.pages {
		if !o.written[idx] {
			t.Fatalf("%s: page %d allocated without a write", what, idx)
		}
	}
}

// The one-lookup access paths agree with a byte-at-a-time oracle at every
// offset around a page boundary, on untouched pages, out of range and
// straddling the end, and for bulk copies across three pages.
func TestPageLocalAccessMatchesByteOracle(t *testing.T) {
	const size = 3*pageSize + 100 // a partial last page
	m := New("m", size, 0, 0, 0)
	o := newByteOracle(size)
	sizes := []int{1, 2, 4, 8}

	// Untouched pages read as zero and stay unallocated, as they do after
	// a zero-size write.
	m.PokeBE(pageSize+5, 0xFF, 0)
	for _, n := range sizes {
		for a := uint32(pageSize - 8); a <= pageSize+8; a++ {
			if got, want := m.PeekBE(a, n), o.peek(a, n); got != want {
				t.Fatalf("untouched PeekBE(%#x, %d) = %#x, want %#x", a, n, got, want)
			}
		}
	}
	o.check(t, m, "after untouched reads")

	val := uint64(0x0123456789ABCDEF)
	for _, boundary := range []uint32{pageSize, 2 * pageSize, 3 * pageSize} {
		for _, n := range sizes {
			for a := boundary - 8; a <= boundary+8; a++ {
				val = val*0x9E3779B97F4A7C15 + 1
				m.PokeBE(a, val, n)
				o.poke(a, val, n)
				for _, r := range sizes {
					for _, ra := range []uint32{a - 1, a, a + 1} {
						if got, want := m.PeekBE(ra, r), o.peek(ra, r); got != want {
							t.Fatalf("PokeBE(%#x, %d) then PeekBE(%#x, %d) = %#x, want %#x", a, n, ra, r, got, want)
						}
					}
				}
			}
		}
	}
	o.check(t, m, "after boundary writes")

	// Out of range and straddling the end: reads float high, writes drop.
	for _, n := range sizes {
		for a := uint32(size - 9); a <= size+8; a++ {
			m.PokeBE(a, val, n)
			o.poke(a, val, n)
			if got, want := m.PeekBE(a, n), o.peek(a, n); got != want {
				t.Fatalf("end PeekBE(%#x, %d) = %#x, want %#x", a, n, got, want)
			}
		}
		if got := m.PeekBE(0xFFFF_FFF0, n); got != ^uint64(0) {
			t.Fatalf("PeekBE far out of range = %#x", got)
		}
		m.PokeBE(0xFFFF_FFF0, val, n)
	}
	o.check(t, m, "after end accesses")

	// Bulk copies across three pages, from a fresh memory so the first
	// page of the run is the only one already touched.
	m, o = New("m", size, 0, 0, 0), newByteOracle(size)
	m.PokeBE(pageSize-60, 0xAABBCCDD, 4)
	o.poke(pageSize-60, 0xAABBCCDD, 4)
	data := make([]byte, 2*pageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	base := uint32(pageSize - 50)
	if err := m.LoadBytes(base, data); err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		o.poke(base+uint32(i), uint64(b), 1)
	}
	o.check(t, m, "after LoadBytes")
	for _, r := range []struct {
		addr uint32
		n    int
	}{{base, len(data)}, {base - 20, len(data) + 40}, {pageSize - 1, 2}, {0, size}, {size - 3, 3}, {size, 0}} {
		got, err := m.ReadBytes(r.addr, r.n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, o.b[r.addr:int(r.addr)+r.n]) {
			t.Fatalf("ReadBytes(%#x, %d) diverges from the byte oracle", r.addr, r.n)
		}
	}
	if err := m.LoadBytes(size-3, make([]byte, 4)); err == nil {
		t.Fatal("LoadBytes past the end accepted")
	}
	if _, err := m.ReadBytes(size-3, 4); err == nil {
		t.Fatal("ReadBytes past the end accepted")
	}
	o.check(t, m, "after rejected bulk accesses")
}

// FuzzMemoryAccess runs random access sequences, clustered around page
// boundaries and the end of memory, against the byte-at-a-time oracle.
// Each op is 11 bytes: kind, page, signed offset, then eight value bytes
// that also size the bulk copies.
func FuzzMemoryAccess(f *testing.F) {
	f.Add([]byte{0, 1, 0xFC, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 0xFC, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0xF0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 3, 1, 0x80, 0x10, 0x01, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 0x7F, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 0x7E, 0, 0, 0, 0, 0, 0, 0, 0})
	const size = 2*pageSize + 13
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New("m", size, 0, 0, 0)
		o := newByteOracle(size)
		for ; len(ops) >= 11; ops = ops[11:] {
			addr := uint32(int(ops[1]%4)*pageSize + int(int8(ops[2])))
			val := binary.BigEndian.Uint64(ops[3:11])
			n := []int{1, 2, 4, 8}[ops[0]>>3%4]
			bulk := int(val % (pageSize + 300))
			switch ops[0] % 5 {
			case 0:
				m.PokeBE(addr, val, n)
				o.poke(addr, val, n)
			case 1:
				if got, want := m.PeekBE(addr, n), o.peek(addr, n); got != want {
					t.Fatalf("PeekBE(%#x, %d) = %#x, want %#x", addr, n, got, want)
				}
			case 2:
				data := make([]byte, bulk)
				for i := range data {
					data[i] = byte(val >> (i % 8 * 8))
				}
				err := m.LoadBytes(addr, data)
				if inRange := int(addr)+bulk <= size; (err == nil) != inRange {
					t.Fatalf("LoadBytes(%#x, %d): err %v, in range %v", addr, bulk, err, inRange)
				} else if inRange {
					for i, b := range data {
						o.poke(addr+uint32(i), uint64(b), 1)
					}
				}
			case 3:
				got, err := m.ReadBytes(addr, bulk)
				if inRange := int(addr)+bulk <= size; (err == nil) != inRange {
					t.Fatalf("ReadBytes(%#x, %d): err %v, in range %v", addr, bulk, err, inRange)
				} else if inRange && !bytes.Equal(got, o.b[addr:int(addr)+bulk]) {
					t.Fatalf("ReadBytes(%#x, %d) diverges from the byte oracle", addr, bulk)
				}
			case 4:
				if got, want := m.PeekBE(addr, 0), o.peek(addr, 0); got != want {
					t.Fatalf("zero-size PeekBE(%#x) = %#x, want %#x", addr, got, want)
				}
				m.PokeBE(addr, val, 0)
			}
		}
		o.check(t, m, "after the sequence")
	})
}

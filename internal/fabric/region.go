package fabric

import "fmt"

// Region is a rectangular reconfigurable region of the CLB array, the
// paper's "dynamic area". Because configuration frames span the full device
// height, a region that does not cover all rows shares its frames with the
// static design above and below — the central implementation issue of §2.2.
type Region struct {
	Name string
	Col0 int // leftmost CLB column
	Row0 int // bottom CLB row of the band
	W    int // width in CLB columns
	H    int // height in CLB rows
	// BRAMBudget is the number of block RAMs the floorplan reserves for the
	// region. It must not exceed the blocks of the enclosed BRAM columns
	// that intersect the row band.
	BRAMBudget int
}

// CLBs returns the number of CLBs in the region.
func (r Region) CLBs() int { return r.W * r.H }

// Slices returns the number of slices in the region.
func (r Region) Slices() int { return 4 * r.CLBs() }

// LUTs returns the number of 4-input LUTs in the region.
func (r Region) LUTs() int { return 2 * r.Slices() }

// FFs returns the number of flip-flops in the region.
func (r Region) FFs() int { return 2 * r.Slices() }

// ContainsCol reports whether CLB column c is inside the region.
func (r Region) ContainsCol(c int) bool { return c >= r.Col0 && c < r.Col0+r.W }

// ContainsSite reports whether the CLB site (row, col) is inside the region.
func (r Region) ContainsSite(row, col int) bool {
	return row >= r.Row0 && row < r.Row0+r.H && r.ContainsCol(col)
}

func (r Region) String() string {
	return fmt.Sprintf("%s: cols[%d,%d) rows[%d,%d) (%d CLBs, %d BRAMs)",
		r.Name, r.Col0, r.Col0+r.W, r.Row0, r.Row0+r.H, r.CLBs(), r.BRAMBudget)
}

// BRAMColumns returns the indices (in the device's BRAM column numbering) of
// the BRAM columns enclosed by the region.
func (d *Device) BRAMColumns(r Region) []int {
	var cols []int
	for i := range d.BRAMColPos {
		if d.bramEnclosed(r, i) {
			cols = append(cols, i)
		}
	}
	return cols
}

// bramEnclosed reports whether BRAM column i is enclosed by the region: the
// column sits between CLB columns p and p+1, and both are inside it.
func (d *Device) bramEnclosed(r Region, i int) bool {
	p := d.BRAMColPos[i]
	return r.ContainsCol(p) && r.ContainsCol(p+1)
}

// bramBlockSpan returns the half-open row interval of block k in a BRAM
// column holding n blocks over the device height.
func (d *Device) bramBlockSpan(k int) (lo, hi int) {
	n := d.BRAMsPerCol
	return k * d.Rows / n, (k + 1) * d.Rows / n
}

// BRAMsIntersecting returns how many block RAMs of the enclosed columns
// intersect the region's row band — the upper bound for Region.BRAMBudget.
func (d *Device) BRAMsIntersecting(r Region) int {
	cols := len(d.BRAMColumns(r))
	perCol := 0
	for k := 0; k < d.BRAMsPerCol; k++ {
		lo, hi := d.bramBlockSpan(k)
		if hi > r.Row0 && lo < r.Row0+r.H {
			perCol++
		}
	}
	return cols * perCol
}

// BRAMsContained returns how many block RAMs fall entirely inside the row
// band (and can therefore be reconfigured without touching static BRAMs).
func (d *Device) BRAMsContained(r Region) int {
	cols := len(d.BRAMColumns(r))
	perCol := 0
	for k := 0; k < d.BRAMsPerCol; k++ {
		lo, hi := d.bramBlockSpan(k)
		if lo >= r.Row0 && hi <= r.Row0+r.H {
			perCol++
		}
	}
	return cols * perCol
}

// ValidateRegion checks that the region fits the device, does not overlap a
// hard block, and does not over-commit BRAM.
func (d *Device) ValidateRegion(r Region) error {
	if r.W <= 0 || r.H <= 0 {
		return fmt.Errorf("fabric: region %s has non-positive extent", r.Name)
	}
	if r.Col0 < 0 || r.Row0 < 0 || r.Col0+r.W > d.Cols || r.Row0+r.H > d.Rows {
		return fmt.Errorf("fabric: region %s exceeds device %s bounds", r.Name, d.Name)
	}
	for _, hb := range d.HardBlocks {
		if r.Col0 < hb.Col0+hb.W && hb.Col0 < r.Col0+r.W &&
			r.Row0 < hb.Row0+hb.H && hb.Row0 < r.Row0+r.H {
			return fmt.Errorf("fabric: region %s overlaps hard block %s", r.Name, hb.Name)
		}
	}
	if max := d.BRAMsIntersecting(r); r.BRAMBudget > max {
		return fmt.Errorf("fabric: region %s reserves %d BRAMs, only %d available", r.Name, r.BRAMBudget, max)
	}
	return nil
}

// FullHeight reports whether the region spans every row of the device.
// Full-height regions isolate the two sides of the device from each other,
// which is why practical dynamic areas avoid them (§2.2).
func (d *Device) FullHeight(r Region) bool { return r.Row0 == 0 && r.H == d.Rows }

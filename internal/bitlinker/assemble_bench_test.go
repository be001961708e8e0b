package bitlinker_test

import (
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/fabric"
	"repro/internal/hwcore"
	"repro/internal/platform"
)

// sys64Assembler returns an assembler for the 64-bit system's dynamic
// region over its static design, and the placed hwcore components that fit.
func sys64Assembler(b *testing.B) (*bitlinker.Assembler, []bitlinker.Placed) {
	sys, err := platform.NewSys64()
	if err != nil {
		b.Fatal(err)
	}
	area := sys.Floorplan.Areas[0]
	asm, err := bitlinker.New(sys.Dev, area.R, sys.CM.Clone(), area.Macro)
	if err != nil {
		b.Fatal(err)
	}
	var placed []bitlinker.Placed
	for _, spec := range hwcore.Specs() {
		comp, err := hwcore.BuildComponent(spec, sys.Dev, area.R, area.Macro)
		if err == nil {
			placed = append(placed, bitlinker.Placed{C: comp, ColOff: area.R.W - comp.W})
		}
	}
	return asm, placed
}

// BenchmarkAssemble measures complete assembly of the 64-bit system's
// dynamic region (XC2VP30, dynamic64), cycling through the components.
func BenchmarkAssemble(b *testing.B) {
	asm, placed := sys64Assembler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(placed[i%len(placed)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembleDifferential measures differential assembly on the same
// region, cycling through the component transitions.
func BenchmarkAssembleDifferential(b *testing.B) {
	asm, placed := sys64Assembler(b)
	n := len(placed)
	targets := make([]*fabric.ConfigMemory, n)
	for i, p := range placed {
		targets[i] = asm.Target(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := i%n, (i+1+i/n%(n-1))%n
		if _, err := asm.AssembleDifferential(targets[from], placed[to]); err != nil {
			b.Fatal(err)
		}
	}
}

package bitstream_test

import (
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/hwcore"
	"repro/internal/platform"
)

// BenchmarkLoaderLoad streams a complete bitstream of the 32-bit system's
// dynamic region (the jenkins module) through the loader.
func BenchmarkLoaderLoad(b *testing.B) {
	sys, err := platform.NewSys32()
	if err != nil {
		b.Fatal(err)
	}
	area := sys.Floorplan.Areas[0]
	asm, err := bitlinker.New(sys.Dev, area.R, sys.CM.Clone(), area.Macro)
	if err != nil {
		b.Fatal(err)
	}
	var spec hwcore.Spec
	for _, s := range hwcore.Specs() {
		if s.Name == "jenkins" {
			spec = s
		}
	}
	comp, err := hwcore.BuildComponent(spec, sys.Dev, area.R, area.Macro)
	if err != nil {
		b.Fatal(err)
	}
	res, err := asm.Assemble(bitlinker.Placed{C: comp, ColOff: area.R.W - comp.W})
	if err != nil {
		b.Fatal(err)
	}
	cm := sys.CM.Clone()
	b.SetBytes(int64(4 * len(res.Stream.Words)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := bitstream.NewLoader(cm)
		if err := l.Load(res.Stream); err != nil || !l.Done() {
			b.Fatalf("load: done %v, %v", l.Done(), err)
		}
	}
}

package platform

import (
	"testing"

	"repro/internal/icap"
	"repro/internal/plan"
)

// BenchmarkCPUStreamLoad measures one complete CPU-path load of the 64-bit
// system's dynamic region, alternating between two modules so every load
// rewrites the region: the gate, the word stores through the bridge into
// the HWICAP, the loader and its CRC, and the rebind with its readback CRC
// and static-design check.
func BenchmarkCPUStreamLoad(b *testing.B) {
	s, err := NewSys64()
	if err != nil {
		b.Fatal(err)
	}
	mods := s.Mgr.Modules()
	if len(mods) < 2 {
		b.Fatalf("sys64 registers %d modules, want two", len(mods))
	}
	words := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, err := s.Mgr.LoadPlannedAbortable(plan.Plan{Module: mods[i%2], Kind: plan.StreamComplete}, nil)
		if err != nil {
			b.Fatal(err)
		}
		words += n / 4
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
}

// BenchmarkICAPStores measures the store mechanics of the CPU configuration
// path alone: SWs of 64K dummy words into the 64-bit system's HWICAP write
// FIFO. The configuration logic discards words before the sync word, so the
// loader does next to nothing.
func BenchmarkICAPStores(b *testing.B) {
	s, err := NewSys64()
	if err != nil {
		b.Fatal(err)
	}
	words := make([]uint32, 1<<16)
	for i := range words {
		words[i] = 0xFFFFFFFF
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CPU.SWs(AddrICAP+icap.RegWriteFIFO, words)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/word")
}

package tasks

import (
	"testing"

	"repro/internal/platform"
)

// BenchmarkJenkinsHit measures one all-hit request of the serve path: a
// 1 KiB JenkinsRun on the 32-bit system through ExecuteOn, with the module
// already resident — the payload fill, WriteMem, the driver's LW/SW chain
// through the bridge and the reference check.
func BenchmarkJenkinsHit(b *testing.B) {
	s, err := platform.NewSys32()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "jenkins"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := JenkinsRun{Seed: int64(i), Len: 1024, InitVal: uint32(i)}
		rep, err := s.ExecuteOn(0, r.Module(), func() error { return r.Run(s) })
		if err != nil {
			b.Fatal(err)
		}
		if !rep.CacheHit {
			b.Fatal("request missed the resident module")
		}
	}
}

// BenchmarkUncachedLW measures the word loads of the 32-bit system's task
// drivers: LW from external SRAM, which is uncached, through the PLB, the
// PLB→OPB bridge and the OPB memory controller.
func BenchmarkUncachedLW(b *testing.B) {
	s, err := platform.NewSys32()
	if err != nil {
		b.Fatal(err)
	}
	const words = 1024
	base := s.MemBase() + runInputOff
	if err := s.WriteMem(base, runnerData(1, 4*words)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := uint32(0); w < words; w++ {
			s.CPU.LW(base + 4*w)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
}

// BenchmarkRunnerData measures the payload fill of one 1 KiB request.
func BenchmarkRunnerData(b *testing.B) {
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runnerData(int64(i), 1024)
	}
}

package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tasks"
)

// warmWorkload issues n requests for the same module; coldWorkload
// alternates two modules so every request misses the bitstream cache.
func warmWorkload(n int) []tasks.Runner {
	w := make([]tasks.Runner, 0, n)
	for i := 0; i < n; i++ {
		w = append(w, tasks.BrightnessRun{Seed: int64(i), N: 512, Delta: 9})
	}
	return w
}

func coldWorkload(n int) []tasks.Runner {
	w := make([]tasks.Runner, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			w = append(w, tasks.BrightnessRun{Seed: int64(i), N: 512, Delta: 9})
		} else {
			w = append(w, tasks.BlendRun{Seed: int64(i), N: 512})
		}
	}
	return w
}

func runWorkload(t testing.TB, w []tasks.Runner) Stats {
	s := New(pool32(t, 1), Options{})
	for _, ch := range submitAll(s, w) {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s.Wait()
	return s.Stats()
}

func busy(st Stats) sim.Time {
	var total sim.Time
	for _, b := range st.BusyTime {
		total += b
	}
	return total
}

// TestCacheFriendlySpeedup is the acceptance criterion: the same request
// count on the same pool must complete at least twice as fast (in
// simulated time) when the workload is cache-friendly as when every
// request reconfigures.
func TestCacheFriendlySpeedup(t *testing.T) {
	const n = 12
	warm := runWorkload(t, warmWorkload(n))
	cold := runWorkload(t, coldWorkload(n))
	if warm.Misses != 1 || warm.Hits != n-1 {
		t.Fatalf("warm workload: hits=%d misses=%d, want %d/1", warm.Hits, warm.Misses, n-1)
	}
	if cold.Misses != n {
		t.Fatalf("cold workload: misses=%d, want %d", cold.Misses, n)
	}
	bw, bc := busy(warm), busy(cold)
	speedup := float64(bc) / float64(bw)
	t.Logf("simulated busy time: warm %v, cold %v, speedup %.1fx (config warm %v vs cold %v)",
		bw, bc, speedup, warm.Config, cold.Config)
	if speedup < 2 {
		t.Fatalf("cache-friendly speedup %.2fx < 2x", speedup)
	}
}

// The benchmarks report the simulated-time economics of the bitstream
// cache alongside wall-clock cost: sim-us/req is the metric that matches
// the paper's tables.
func benchWorkload(b *testing.B, mk func(int) []tasks.Runner) {
	const n = 12
	for i := 0; i < b.N; i++ {
		st := runWorkload(b, mk(n))
		b.ReportMetric(busy(st).Microseconds()/float64(n), "sim-us/req")
		b.ReportMetric(st.HitRate(), "hit-rate")
	}
}

func BenchmarkSchedulerCacheFriendly(b *testing.B) { benchWorkload(b, warmWorkload) }

func BenchmarkSchedulerCacheCold(b *testing.B) { benchWorkload(b, coldWorkload) }

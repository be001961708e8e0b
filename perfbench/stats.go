package main

import (
	"math"
	"sort"
	"syscall"

	"repro/internal/sim"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so the spread printed here matches the
// spread computed over whole runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile of the samples as the mean of the
// sorted samples within one standard error of the nearest rank: the rank
// of a p-quantile among n samples spreads by sqrt(p(1-p)n), so the mean
// over that window is as sharp as the sample allows. Task latencies take
// discrete values and cluster, so a single order statistic jumps between
// clusters as a round's length or payloads change; the window follows the
// neighbourhood instead.
func percentile(samples []sim.Time, p float64) sim.Time {
	s := append([]sim.Time(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	k := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	w := max(1, int(math.Ceil(math.Sqrt(p*(1-p)*float64(n)))))
	lo, hi := max(k-w, 0), min(k+w, n-1)
	var sum sim.Time
	for _, v := range s[lo : hi+1] {
		sum += v
	}
	return sum / sim.Time(hi-lo+1)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

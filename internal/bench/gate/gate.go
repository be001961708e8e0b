// Package gate holds the bench-regression band math and the append-only
// per-commit metric history shared by the bench tooling: cmd/benchdiff
// (the CI pass/fail gate), internal/bench (which writes every refreshed
// metric to the history), and cmd/benchboard (which renders the history
// and flags the points the gate would fail). Which metric is held, in
// which direction and at which band is declared once, in
// internal/bench.Suites; this package only does the arithmetic.
//
// Two gating regimes coexist, keyed on the baseline value:
//
//   - A nonzero baseline gates on relative change: the fresh value may
//     move the wrong way by at most the metric's band in percent.
//
//   - A zero baseline gates on absolute growth against an epsilon
//     resolved by unit (ZeroEps). A percentage of zero is undefined:
//     scaling any band by a zero baseline would admit nothing, and
//     mapping it to a fixed percent would admit arbitrary absolute
//     growth. The S6 capacity drive leans on this rule — its all-hit rows
//     pin config_ms and bytes_streamed at exactly zero, so any future miss
//     on the request path is a hard failure, not a percentage.
package gate

// Absolute epsilons for zero baselines. Visible configuration time
// tolerates rounding dust (the records store milliseconds at microsecond
// precision); request-path bytes are integral and tolerate nothing.
const (
	ConfigMsZeroEps = 0.01
	BytesZeroEps    = 0
)

// ZeroEps resolves a smaller-is-better metric's zero-baseline epsilon by
// its unit: milliseconds get ConfigMsZeroEps, every other unit (bytes)
// BytesZeroEps.
func ZeroEps(unit string) float64 {
	if unit == "ms" {
		return ConfigMsZeroEps
	}
	return BytesZeroEps
}

// Verdict is one metric comparison's outcome.
type Verdict struct {
	// Pass is false when the fresh value regressed beyond the band.
	Pass bool
	// Zero marks a zero-baseline comparison: Allowed is then the absolute
	// epsilon in the metric's own unit and DeltaPct is zero (undefined).
	Zero bool
	// DeltaPct is the relative change in percent against a nonzero
	// baseline; negative is an improvement.
	DeltaPct float64
	// Allowed is the band the comparison was held to: percent growth for
	// a nonzero baseline, absolute units for a zero one.
	Allowed float64
}

// Check gates a smaller-is-better metric (config time, streamed bytes,
// latency): fresh may exceed base by at most allowedPct percent, or — when
// base is zero — by at most zeroEps in absolute units.
func Check(base, fresh, allowedPct, zeroEps float64) Verdict {
	if base == 0 {
		return Verdict{Pass: fresh <= zeroEps, Zero: true, Allowed: zeroEps}
	}
	delta := 100 * (fresh - base) / base
	return Verdict{Pass: delta <= allowedPct, DeltaPct: delta, Allowed: allowedPct}
}

// CheckHigherBetter gates a bigger-is-better metric (availability,
// throughput, hidden config time): fresh may fall short of base by at most
// allowedPct percent. A zero baseline passes unconditionally — there is no
// level to fall from, and absolute-epsilon gating has no analogue for
// growth metrics.
func CheckHigherBetter(base, fresh, allowedPct float64) Verdict {
	if base == 0 {
		return Verdict{Pass: true, Zero: true}
	}
	delta := 100 * (fresh - base) / base
	return Verdict{Pass: delta >= -allowedPct, DeltaPct: delta, Allowed: allowedPct}
}

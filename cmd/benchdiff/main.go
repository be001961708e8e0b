// Command benchdiff is the CI bench-regression gate: it compares a fresh
// scheduler bench run (fpgad -compare -json) against the committed
// baseline, matching records by (table, label) and checking every metric
// the suite declaration (internal/bench.Suites) gates: visible
// configuration time and request-path bytes on every suite, plus every
// declared metric of a deterministic suite, each in its own direction and
// at its own band. Any gated metric regressing past its band on any
// configuration fails the gate; configurations present only in the fresh
// run are reported but never fail (new rows are how the bench grows). A
// perf improvement is reported as a favourable delta — and is the cue to
// re-commit the baseline so the win is locked in.
//
// The band math lives in internal/bench/gate and the declaration in
// internal/bench, both shared with cmd/benchboard, so a dashboard flag and
// a gate verdict can never disagree. benchdiff only reads: it writes no
// history.
//
// Usage:
//
//	benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	basePath := fs.String("baseline", "BENCH_sched.json", "committed baseline records")
	freshPath := fs.String("fresh", "", "fresh bench records to gate")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *freshPath == "" {
		fmt.Fprintln(errw, "benchdiff: -fresh is required")
		return 2
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintln(errw, "benchdiff: baseline has no records")
		return 2
	}

	freshBy := make(map[string]bench.PlacementRecord, len(fresh))
	for _, r := range fresh {
		freshBy[key(r)] = r
	}
	keys := make([]string, 0, len(base))
	baseBy := make(map[string]bench.PlacementRecord, len(base))
	for _, r := range base {
		baseBy[key(r)] = r
		keys = append(keys, key(r))
	}
	sort.Strings(keys)

	failures := 0
	for _, k := range keys {
		b := baseBy[k]
		f, ok := freshBy[k]
		if !ok {
			fmt.Fprintf(errw, "benchdiff: FAIL %s: configuration missing from fresh run\n", k)
			failures++
			continue
		}
		suite := bench.SuiteOf(b.Table)
		for _, m := range suite.Metrics {
			if !suite.Gated(m) {
				continue
			}
			bv, fv := b.Value(m.Name), f.Value(m.Name)
			v := m.Check(bv, fv)
			status := "ok  "
			if !v.Pass {
				status = "FAIL"
				failures++
			}
			sign := "+"
			if m.HigherBetter {
				sign = "-"
			}
			switch {
			case v.Zero && m.HigherBetter:
				fmt.Fprintf(out, "%s %-32s %-18s %12.3f %s -> %12.3f %s  (zero baseline, nothing to fall from)\n",
					status, k, m.Name, bv, m.Unit, fv, m.Unit)
			case v.Zero:
				// A percentage of zero is undefined, so the zero-baseline
				// rows gate the absolute delta (see internal/bench/gate).
				fmt.Fprintf(out, "%s %-32s %-18s %12.3f %s -> %12.3f %s  (zero baseline, allowed +%.3g %s absolute)\n",
					status, k, m.Name, bv, m.Unit, fv, m.Unit, v.Allowed, m.Unit)
			default:
				fmt.Fprintf(out, "%s %-32s %-18s %12.3f %s -> %12.3f %s  (%+.1f%%, allowed %s%.0f%%)\n",
					status, k, m.Name, bv, m.Unit, fv, m.Unit, v.DeltaPct, sign, v.Allowed)
			}
		}
	}
	for _, r := range fresh {
		if _, ok := baseBy[key(r)]; !ok {
			fmt.Fprintf(out, "new  %-32s (not in baseline; commit the fresh records to start gating it)\n", key(r))
		}
	}
	if failures > 0 {
		fmt.Fprintf(errw, "benchdiff: %d regression(s) beyond tolerance — investigate, or re-commit the baseline if the change is intended\n",
			failures)
		return 1
	}
	fmt.Fprintf(out, "benchdiff: %d configuration(s) within tolerance of baseline\n", len(keys))
	return 0
}

func key(r bench.PlacementRecord) string { return r.Table + "/" + r.Label }

func load(path string) ([]bench.PlacementRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := bench.DecodeRecords(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

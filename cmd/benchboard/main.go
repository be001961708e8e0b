// Command benchboard turns the append-only per-commit metric history
// (artifacts/bench/history.jsonl) into the repo's perf trajectory — the
// config-time / wire-bytes / availability / sustained-rate curves across
// commits that a single BENCH_sched.json snapshot cannot show.
//
//   - -extract walks the archived per-commit snapshots
//     (artifacts/bench/BENCH_sched.<sha>.json) and appends any metrics
//     the history does not hold yet, so the store can be rebuilt from
//     snapshots at any time (idempotent: re-running appends nothing).
//
//   - -md renders a static EXPERIMENTS-style trajectory table per suite
//     and metric; -svg writes one chart per (suite, metric) beside it.
//
//   - -serve starts a small HTTP server plotting the same charts as
//     inline SVG, one polyline per configuration label, re-reading the
//     history on every request.
//
// Regression annotation reads the same suite declaration
// (internal/bench.Suites) and band math (internal/bench/gate) as the CI
// gate: a point is flagged exactly when cmd/benchdiff would fail it
// against its predecessor. Metrics the gate does not hold are plotted,
// never flagged.
//
// Usage:
//
//	benchboard -extract
//	benchboard -extract -md artifacts/bench/board/TRAJECTORY.md -svg artifacts/bench/board
//	benchboard -serve localhost:8321
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/bench/gate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchboard", flag.ContinueOnError)
	fs.SetOutput(errw)
	historyPath := fs.String("history", "artifacts/bench/history.jsonl", "per-commit metric history (JSONL)")
	extract := fs.Bool("extract", false, "lift archived snapshots into the history file")
	snapshots := fs.String("snapshots", "artifacts/bench", "snapshot directory for -extract (BENCH_sched.<sha>.json)")
	mdPath := fs.String("md", "", "render the trajectory as a markdown table to this file")
	readmePath := fs.String("readme", "", "refresh the per-metric sparkline section of this markdown file (between benchboard markers; created if missing)")
	svgDir := fs.String("svg", "", "write one SVG chart per (suite, metric) into this directory")
	serveAddr := fs.String("serve", "", "serve the trajectory dashboard on this address (e.g. localhost:8321)")
	pruneN := fs.Int("prune", 0, "keep only the newest N archived snapshots in the -snapshots directory (0 = keep all; history.jsonl retains the full trajectory)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *pruneN < 0 {
		fmt.Fprintf(errw, "benchboard: -prune %d: keep a non-negative snapshot count\n", *pruneN)
		return 2
	}
	if !*extract && *mdPath == "" && *readmePath == "" && *svgDir == "" && *serveAddr == "" && *pruneN == 0 {
		fmt.Fprintln(errw, "benchboard: nothing to do — pass -extract, -md, -readme, -svg, -prune and/or -serve")
		return 2
	}
	if *extract {
		added, files, err := extractSnapshots(*historyPath, *snapshots)
		if err != nil {
			fmt.Fprintln(errw, "benchboard:", err)
			return 1
		}
		fmt.Fprintf(out, "extracted %d snapshot(s): %d new metric(s) appended to %s\n", files, added, *historyPath)
	}
	if *pruneN > 0 {
		// Prune after -extract so a snapshot's metrics always reach the
		// history before its file goes.
		removed, kept, err := pruneSnapshots(*snapshots, *pruneN)
		if err != nil {
			fmt.Fprintln(errw, "benchboard:", err)
			return 1
		}
		fmt.Fprintf(out, "pruned %d snapshot(s), kept the newest %d in %s\n", removed, kept, *snapshots)
	}
	if *mdPath != "" || *readmePath != "" || *svgDir != "" {
		charts, skipped, err := loadCharts(*historyPath)
		if err != nil {
			fmt.Fprintln(errw, "benchboard:", err)
			return 1
		}
		if skipped > 0 {
			fmt.Fprintf(out, "benchboard: skipped %d damaged history line(s)\n", skipped)
		}
		if len(charts) == 0 {
			fmt.Fprintf(errw, "benchboard: %s holds no metrics — run -extract or `make bench` first\n", *historyPath)
			return 1
		}
		if *mdPath != "" {
			if err := writeMarkdown(*mdPath, charts); err != nil {
				fmt.Fprintln(errw, "benchboard:", err)
				return 1
			}
			fmt.Fprintf(out, "wrote %s (%d chart(s))\n", *mdPath, len(charts))
		}
		if *readmePath != "" {
			if err := updateReadme(*readmePath, charts); err != nil {
				fmt.Fprintln(errw, "benchboard:", err)
				return 1
			}
			fmt.Fprintf(out, "refreshed sparklines in %s (%d chart(s))\n", *readmePath, len(charts))
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fmt.Fprintln(errw, "benchboard:", err)
				return 1
			}
			for _, c := range charts {
				path := filepath.Join(*svgDir, c.fileName()+".svg")
				if err := os.WriteFile(path, []byte(c.svg()), 0o644); err != nil {
					fmt.Fprintln(errw, "benchboard:", err)
					return 1
				}
			}
			fmt.Fprintf(out, "wrote %d chart(s) to %s\n", len(charts), *svgDir)
		}
	}
	if *serveAddr != "" {
		fmt.Fprintf(out, "benchboard: serving http://%s/ from %s\n", *serveAddr, *historyPath)
		if err := http.ListenAndServe(*serveAddr, boardHandler(*historyPath)); err != nil {
			fmt.Fprintln(errw, "benchboard:", err)
			return 1
		}
	}
	return 0
}

// snapshotRe matches archived per-commit snapshots.
var snapshotRe = regexp.MustCompile(`^BENCH_sched\.([0-9a-f]{6,40})\.json$`)

// extractSnapshots lifts every archived snapshot's metrics into the
// history, in commit order where git can resolve it (filename order
// otherwise), skipping (sha, suite, metric) keys the history already
// holds so re-extraction is idempotent.
func extractSnapshots(historyPath, dir string) (added, files int, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var shas []string
	for _, e := range names {
		if m := snapshotRe.FindStringSubmatch(e.Name()); m != nil {
			shas = append(shas, m[1])
		}
	}
	sort.Strings(shas)
	shas = gitOrder(dir, shas)
	existing, _, err := gate.LoadEntries(historyPath)
	if err != nil {
		return 0, 0, err
	}
	seen := make(map[string]bool, len(existing))
	for _, e := range existing {
		seen[e.SHA+"\x00"+e.Suite+"\x00"+e.Metric] = true
	}
	for _, sha := range shas {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_sched."+sha+".json"))
		if err != nil {
			return added, files, err
		}
		rows, err := bench.DecodeRecords(data)
		if err != nil {
			return added, files, fmt.Errorf("%s: %w", sha, err)
		}
		files++
		var fresh []gate.Entry
		for _, e := range bench.HistoryEntries(rows, sha) {
			k := e.SHA + "\x00" + e.Suite + "\x00" + e.Metric
			if !seen[k] {
				seen[k] = true
				fresh = append(fresh, e)
			}
		}
		if err := gate.AppendEntries(historyPath, fresh); err != nil {
			return added, files, err
		}
		added += len(fresh)
	}
	return added, files, nil
}

// pruneSnapshots deletes all but the newest keep archived snapshots from
// dir, in the same commit order -extract uses (git first-parent order
// where resolvable, filename order otherwise). The history store already
// carries every pruned snapshot's metrics, so retention only bounds the
// artifact directory's growth, never the trajectory.
func pruneSnapshots(dir string, keep int) (removed, kept int, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var shas []string
	for _, e := range names {
		if m := snapshotRe.FindStringSubmatch(e.Name()); m != nil {
			shas = append(shas, m[1])
		}
	}
	sort.Strings(shas)
	shas = gitOrder(dir, shas) // oldest first
	if len(shas) <= keep {
		return 0, len(shas), nil
	}
	for _, sha := range shas[:len(shas)-keep] {
		if err := os.Remove(filepath.Join(dir, "BENCH_sched."+sha+".json")); err != nil {
			return removed, keep, err
		}
		removed++
	}
	return removed, keep, nil
}

// gitOrder sorts short SHAs into first-parent commit order when the
// directory sits inside a git checkout that knows them; SHAs git cannot
// resolve (and the whole list, outside a checkout) keep their incoming
// order at the front — oldest-first extraction only needs to be stable,
// not perfect.
func gitOrder(dir string, shas []string) []string {
	cmd := exec.Command("git", "-C", dir, "rev-list", "--first-parent", "--reverse", "HEAD")
	raw, err := cmd.Output()
	if err != nil {
		return shas
	}
	pos := make(map[string]int, len(shas))
	for i, full := range strings.Fields(string(raw)) {
		for _, s := range shas {
			if strings.HasPrefix(full, s) {
				pos[s] = i + 1
			}
		}
	}
	ordered := append([]string(nil), shas...)
	sort.SliceStable(ordered, func(i, j int) bool { return pos[ordered[i]] < pos[ordered[j]] })
	return ordered
}

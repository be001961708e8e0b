package sched

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/tasks"
)

var updateDispatchGolden = flag.Bool("update", false, "rewrite the dispatch-order goldens from the current scheduler")

// The dispatch goldens pin the scheduler's full observable placement — for
// every request of a paced deterministic drive: which (member, region) slot
// served it, what stream kind and wire bytes the load paid, and its
// completion sequence. The sharded scheduler's 1-shard configuration must
// reproduce these byte for byte (the goldens were captured against the
// pre-shard single-mutex dispatcher), the same discipline the 98-row stream
// goldens applied to the single-region refactor in PR 4.

// settleSched busy-waits for a fully drained scheduler — the pacing
// discipline the deterministic bench drives share (see bench.settle).
func settleSched(s *Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// dispatchLine renders one result's pinned placement. pinSeq pins the
// pool-wide completion sequence too — only meaningful for fully serialized
// (window-1 paced) drives: the paired drive keeps two members in flight,
// and concurrently completing members race for the sequence counter even
// in the pre-shard scheduler, so pinning it there would pin host timing.
func dispatchLine(r Result, pinSeq bool) string {
	line := fmt.Sprintf("id=%02d mod=%s member=%d region=%d kind=%s bytes=%d",
		r.ID, r.Module, r.Member, r.Region, r.Report.Kind, r.Report.BytesStreamed)
	if pinSeq {
		line += fmt.Sprintf(" seq=%02d", r.Seq)
	}
	return line + fmt.Sprintf(" hit=%v", r.Report.CacheHit)
}

const goldenMix = "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"

func goldenWorkload(t *testing.T, n int) []tasks.Runner {
	t.Helper()
	mix, err := ParseMix(goldenMix)
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenWorkload(7, n, mix)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// dispatchGoldenCases enumerates the paced deterministic drives the goldens
// cover: the S3-style window-1 mincost run (with and without the markov
// prefetch pipeline) on the 2+2 pool, and the S8-style paired gang+DMA
// drive with compressed streams on the dual-region 64-bit pair.
var dispatchGoldenCases = []struct {
	name   string
	pinSeq bool
	run    func(t *testing.T, shards int) []Result
}{
	{"paced_mincost_2p2", true, func(t *testing.T, shards int) []Result {
		return runPacedGolden(t, pool.Config{Sys32: 2, Sys64: 2}, "mincost", "", false, shards)
	}},
	{"paced_prefetch_markov_2p2", true, func(t *testing.T, shards int) []Result {
		return runPacedGolden(t, pool.Config{Sys32: 2, Sys64: 2}, "mincost", "markov", false, shards)
	}},
	{"paired_gang_dma_dual64", false, func(t *testing.T, shards int) []Result {
		return runPairedGolden(t, shards)
	}},
}

// runPacedGolden drives the seeded 60-request mix window-1 paced (settled
// between arrivals) and returns the results in submission order.
func runPacedGolden(t *testing.T, cfg pool.Config, policyName, predictorName string, compress bool, shards int) []Result {
	t.Helper()
	policy, err := PolicyByName(policyName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCompression(compress)
	opts := Options{Batch: 4, Policy: policy, Shards: shards}
	if predictorName != "" {
		pred, err := predict.New(predictorName)
		if err != nil {
			t.Fatal(err)
		}
		opts.Prefetch, opts.Predictor = true, pred
	}
	s := New(p, opts)
	w := goldenWorkload(t, 60)
	var res []Result
	submitWindowed(s, w, 1, func(r Result) {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
		res = append(res, r)
		settleSched(s)
	})
	settleSched(s)
	s.Wait()
	return res
}

// runPairedGolden drives the S8-style paired batches (gang placement,
// compressed streams, DMA load path) on the dual-region 64-bit pair.
func runPairedGolden(t *testing.T, shards int) []Result {
	t.Helper()
	policy, err := PolicyByName("gang")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{Sys64: 2, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.SetCompression(true)
	s := New(p, Options{Batch: 4, Policy: policy, DMA: true, Shards: shards})
	w := goldenWorkload(t, 60)
	res := make([]Result, 0, len(w))
	for i := 0; i < len(w); i += 2 {
		end := i + 2
		if end > len(w) {
			end = len(w)
		}
		for _, ch := range s.SubmitBatch(w[i:end]) {
			r := <-ch
			if r.Err != nil {
				t.Fatalf("request %d (%s): %v", r.ID, r.Task, r.Err)
			}
			res = append(res, r)
		}
		settleSched(s)
	}
	s.Wait()
	return res
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "dispatch_"+name+".golden")
}

// TestDispatchOrderGolden pins the 1-shard dispatch order against the
// pre-shard scheduler's captured placements.
func TestDispatchOrderGolden(t *testing.T) {
	for _, tc := range dispatchGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(t, 1)
			lines := make([]string, len(res))
			for i, r := range res {
				lines[i] = dispatchLine(r, tc.pinSeq)
			}
			got := strings.Join(lines, "\n") + "\n"
			path := goldenPath(tc.name)
			if *updateDispatchGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to capture): %v", err)
			}
			if got != string(want) {
				t.Fatalf("dispatch order diverged from the pre-shard golden %s:\n%s",
					path, diffLines(string(want), got))
			}
		})
	}
}

// diffLines reports the first few divergent lines of two line-oriented
// strings, with one line of context.
func diffLines(want, got string) string {
	ws, gs := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(ws) || i < len(gs); i++ {
		var w, g string
		if i < len(ws) {
			w = ws[i]
		}
		if i < len(gs) {
			g = gs[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
		if shown++; shown >= 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}

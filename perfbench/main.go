// Command perfbench is the repository's benchmark. It drives the
// reconfiguration scheduler and the platform layers below it through their
// public functions on one of four seeded workloads, checks the outputs,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with all
// tracing off over the cycles of rounds --seconds sets. With --trace 1 the
// run pairs each round of one cycle with a traced twin, replays a traced
// round through the platform calls, times the layers below the platform
// directly and reports the per-layer metrics; the spans and the program's
// own trace are written under --out.
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/platform"
	"repro/internal/trace"
)

// metricDef declares one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, reported on every
// workload with tracing off. Host metrics time the simulator; sim metrics
// are the modelled hardware's and repeat exactly for a given seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_config_ms_per_req", "ms", "lower"},
	{"sim_wire_kb_per_req", "kB", "lower"},
	{"sim_latency_p50_us", "us", "lower"},
	{"sim_latency_p95_us", "us", "lower"},
	{"sim_availability", "frac", "higher"},
}

// perLayer are the traced run's metrics, one group per module.
var perLayer = []metricDef{
	{"pool.new_s", "s", "lower"},
	{"platform.boot_sys32_ms", "ms", "lower"},
	{"platform.boot_sys64_ms", "ms", "lower"},
	{"bitstream.frame_crc_ns_per_word", "ns/word", "lower"},
	{"bitstream.load_ns_per_word", "ns/word", "lower"},
	{"bitstream.compress_ms_per_pair", "ms", "lower"},
	{"bitstream.decode_ns_per_word", "ns/word", "lower"},
	{"bitlinker.assemble_ms", "ms", "lower"},
	{"bitlinker.diff_assemble_ms", "ms", "lower"},
	{"fabric.static_hash_us", "us", "lower"},
	{"plan.plan_us", "us", "lower"},
	{"plan.diff_frac", "frac", "higher"},
	{"plan.complete_frac", "frac", "lower"},
	{"plan.compressed_frac", "frac", "higher"},
	{"core.load_ms", "ms", "lower"},
	{"core.scrub_ms", "ms", "lower"},
	{"core.loads_per_req", "count", "lower"},
	{"core.scrub_passes_per_req", "count", "lower"},
	{"icap.words_per_req", "count", "lower"},
	{"icap.host_ns_per_word", "ns/word", "lower"},
	{"bus.txn_per_req", "count", "lower"},
	{"bus.host_ns_per_txn", "ns", "lower"},
	{"dock.dma_overlap_frac", "frac", "higher"},
	{"tasks.exec_us", "us", "lower"},
	{"tasks.sim_work_us_per_req", "us", "lower"},
	{"sched.hit_rate", "frac", "higher"},
	{"sched.overhead_us_per_req", "us", "lower"},
	{"sched.steals_per_kreq", "count", "lower"},
	{"fault.detected_frac", "frac", "higher"},
	{"fault.repair_sim_ms_per_upset", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.events_per_req", "count", "lower"},
	{"go.alloc_kb_per_req", "kB", "lower"},
	{"go.gc_per_kreq", "count", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run's metrics and check failures.
type report struct {
	w         workload
	out       io.Writer
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	// digests holds the first round of each (traffic, data) seed pair's
	// full and simulated-only digests.
	digests map[[2]int64][2]string
}

func newReport(w workload, out io.Writer) *report {
	return &report{w: w, out: out, values: make(map[string]float64), digests: make(map[[2]int64][2]string)}
}

func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(r.out, "  CHECK FAILED: %s\n", msg)
}

// set records a metric value and prints it.
func (r *report) set(defs []metricDef, name string, v float64, note string) {
	for _, d := range defs {
		if d.name == name {
			r.values[name] = v
			fmt.Fprintf(r.out, "  %-32s %14.6g %-8s %s\n", name, v, d.unit, note)
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *report) result(defs []metricDef) result {
	res := result{Correct: len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			panic("perfbench: metric not measured: " + d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// spreadNote formats raw values with their median and quartiles.
func spreadNote(unit string, raw []float64) string {
	q1, med, q3 := quartiles(raw)
	parts := make([]string, len(raw))
	for i, v := range raw {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("median %.4g of %d %s, q1 %.4g q3 %.4g, raw [%s]", med, len(raw), unit, q1, q3, strings.Join(parts, " "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: churn, serve, dma, heal, or all")
	seed := fs.Int64("seed", 1, "seed of the payload contents and arrival stamps (the traffic shape is fixed)")
	seconds := fs.Float64("seconds", 20, "run length of the untraced pass: how many cycles of rounds it measures, at the reference host's speed")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced pass writes its spans and program trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		list = []workload{w}
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	final := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range list {
		rep := newReport(w, stdout)
		fmt.Fprintf(stdout, "workload %s (seed %d, trace %d): %s\n", w.name, *seed, *traced, w.why)
		var err error
		if *traced == 1 {
			err = rep.traced(*seed, *outDir)
		} else {
			err = rep.measure(*seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res := rep.result(defs)
		if len(list) == 1 {
			final = res
			break
		}
		// One process, several workloads: every metric is prefixed with
		// its workload (peak_rss_mb is then the process-wide mark so far).
		if err := printJSON(stdout, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[w.name+"."+k] = v
		}
	}
	if err := printJSON(stdout, final); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printJSON writes one result as a single line.
func printJSON(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// measure runs the run length's cycles of rounds with tracing off. It
// reports set-up time as the median over rounds, throughput as the median
// over cycles (every cycle runs the same rounds), and the simulated
// metrics over the first cycle.
func (r *report) measure(seed int64, seconds float64) error {
	w := r.w
	var first []*round
	var setups, rates, cycleRates []float64
	for c, i := 0, 0; c < w.cycles(seconds); c++ {
		var reqs int
		var busy time.Duration
		for k := 0; k < w.simRounds; k, i = k+1, i+1 {
			rd, err := w.runRound(seed, i, nil, nil)
			if err != nil {
				return err
			}
			r.checkRound(rd)
			if i < w.simRounds {
				first = append(first, rd)
			}
			setups = append(setups, rd.setup.Seconds())
			rates = append(rates, float64(len(rd.reqs))/rd.run.Seconds())
			reqs += len(rd.reqs)
			busy += rd.run
		}
		cycleRates = append(cycleRates, float64(reqs)/busy.Seconds())
	}
	var tot simTotals
	for _, rd := range first {
		tot.add(rd)
	}
	fmt.Fprintf(r.out, "  %d cycles of %d rounds of %d requests; simulated metrics over the first cycle (%d requests)\n",
		len(cycleRates), w.simRounds, w.requests, tot.requests)
	r.set(endToEnd, "setup_s", median(setups), spreadNote("rounds", setups))
	r.set(endToEnd, "req_per_s", median(cycleRates), spreadNote("cycles", cycleRates)+"; per round "+spreadNote("rounds", rates))
	r.set(endToEnd, "peak_rss_mb", peakRSSMB(), "process high-water mark")
	n := float64(tot.requests)
	r.set(endToEnd, "sim_config_ms_per_req", tot.config.Milliseconds()/n, "set-up pins plus visible request-path configuration")
	r.set(endToEnd, "sim_wire_kb_per_req", float64(tot.bytes)/1000/n, "set-up pins plus request-path wire bytes")
	r.set(endToEnd, "sim_latency_p50_us", percentile(tot.lat, 0.50).Microseconds(), fmt.Sprintf("n=%d", len(tot.lat)))
	r.set(endToEnd, "sim_latency_p95_us", percentile(tot.lat, 0.95).Microseconds(),
		fmt.Sprintf("n=%d, %d beyond", len(tot.lat), len(tot.lat)-int(0.95*float64(len(tot.lat)))))
	busy := tot.work + tot.config + tot.repair
	r.set(endToEnd, "sim_availability", float64(tot.work)/float64(busy), "work / (work + config + repair)")
	fmt.Fprintf(r.out, "  %-32s %14.6g %-8s %d of %d attempted\n", "failed_frac",
		ratio(float64(r.failed), float64(r.attempted)), "frac", r.failed, r.attempted)
	d := r.digests[[2]int64{first[0].traffic, first[0].data}]
	fmt.Fprintf(r.out, "  digest %s sim_digest %s (round 1)\n", d[0], d[1])
	return nil
}

// checkRound books a round's requests and applies the per-round checks:
// the outright-failure checks, and, for a round that repeats an earlier
// round's seeds, identical simulated results (and identical placement,
// except on the open-loop drive).
func (r *report) checkRound(rd *round) {
	r.attempted += len(rd.reqs)
	for _, res := range rd.results {
		if res.Err != nil {
			r.failed++
			if r.failed <= 3 {
				fmt.Fprintf(r.out, "  request %d (%s) failed: %v\n", res.ID, res.Task, res.Err)
			}
		}
	}
	if err := r.w.checkRound(rd); err != nil {
		r.fail("round seeds %d/%d: %v", rd.traffic, rd.data, err)
	}
	key := [2]int64{rd.traffic, rd.data}
	full, simOnly := rd.digests()
	seen, ok := r.digests[key]
	switch {
	case !ok:
		r.digests[key] = [2]string{full, simOnly}
	case seen[1] != simOnly:
		r.fail("round seeds %d/%d: simulated results differ between repeats (%s vs %s)", rd.traffic, rd.data, seen[1], simOnly)
	case seen[0] != full && r.w.drive != driveOpen:
		r.fail("round seeds %d/%d: placement differs between repeats (%s vs %s)", rd.traffic, rd.data, seen[0], full)
	}
}

// traced runs one cycle of rounds, each untraced and then again as a
// traced twin on the same seeds (at least two pairs), replays the last
// traced round, probes the layers below the platform on its streams, and
// reports the per-layer metrics.
func (r *report) traced(seed int64, outDir string) error {
	w := r.w
	tr := trace.New()
	var sp *spanLog
	var last, twin *round
	var poolNew, plainRates, tracedRates []float64
	var alloc, gcs, plainReqs float64
	for i := 0; i < max(2, w.simRounds); i++ {
		rd, err := w.runRound(seed, i, nil, nil)
		if err != nil {
			return err
		}
		r.checkRound(rd)
		poolNew = append(poolNew, rd.poolNew.Seconds())
		plainRates = append(plainRates, float64(len(rd.reqs))/rd.run.Seconds())
		alloc += float64(rd.allocBytes)
		gcs += float64(rd.gcs)
		plainReqs += float64(len(rd.reqs))

		tr.Reset()
		sp = newSpanLog()
		td, err := w.runRound(seed, i, tr, sp)
		if err != nil {
			return err
		}
		r.checkRound(td)
		poolNew = append(poolNew, td.poolNew.Seconds())
		tracedRates = append(tracedRates, float64(len(td.reqs))/td.run.Seconds())
		last, twin = td, rd
	}
	events := tr.Events()
	n := float64(len(last.reqs))

	rp, err := w.replay(last, sp)
	if err == nil {
		err = rp.check(last)
	}
	if err != nil {
		r.fail("%v", err)
		rp = &replayOut{reports: make([]platform.ExecReport, len(last.results))}
	}
	probe, err := w.probeLayers(last, sp)
	if err != nil {
		return err
	}
	layers, err := selfTimes(sp.spans)
	if err != nil {
		r.fail("spans: %v", err)
	}

	st := last.stats
	loads, diff, complete, compressed := missKinds(last.results)
	// Replayed calls only: set-up pins are loads too, but not the
	// request path's.
	inReplay := []string{"replay.request", "replay.heal"}
	loadN, loadNS := sp.byName("platform.LoadModuleOn", inReplay...)
	beginN, beginNS := sp.byName("platform.BeginExecuteOn")
	execN, execNS := sp.byName("platform.ExecuteOn")
	finishN, finishNS := sp.byName("platform.FinishExecuteOn")
	planN, planNS := sp.byName("platform.PlanForOn")
	scrubN, scrubNS := sp.byName("platform.ScrubOn")
	_, replayNS := sp.byName("replay.request")
	_, healNS := sp.byName("replay.heal")
	var wireWords float64
	for _, rep := range rp.reports {
		wireWords += float64(rep.BytesStreamed) / 4
	}
	injected := float64(last.upsets())
	loadTime := float64(loadNS + beginNS)

	fmt.Fprintf(r.out, "  %d untraced rounds and their traced twins of %d requests; replay and layer probes on the last traced round\n",
		len(plainRates), w.requests)
	r.set(perLayer, "pool.new_s", median(poolNew), spreadNote("rounds", poolNew))
	r.set(perLayer, "platform.boot_sys32_ms", ms(probe.boot32), fmt.Sprintf("median of %d boots", bootProbes))
	r.set(perLayer, "platform.boot_sys64_ms", ms(probe.boot64), fmt.Sprintf("median of %d boots", bootProbes))
	r.set(perLayer, "bitstream.frame_crc_ns_per_word", ratio(float64(probe.crc), float64(probe.crcWords)), fmt.Sprintf("%d words", probe.crcWords))
	r.set(perLayer, "bitstream.load_ns_per_word", ratio(float64(probe.load), float64(probe.loadWords)), fmt.Sprintf("%d words", probe.loadWords))
	r.set(perLayer, "bitstream.compress_ms_per_pair", ratio(ms(probe.compress), float64(probe.compressN)), fmt.Sprintf("%d pairs", probe.compressN))
	r.set(perLayer, "bitstream.decode_ns_per_word", ratio(float64(probe.decode), float64(probe.decodeWords)), fmt.Sprintf("%d decoded words", probe.decodeWords))
	r.set(perLayer, "bitlinker.assemble_ms", ratio(ms(probe.assemble), float64(probe.assembleN)), fmt.Sprintf("%d modules", probe.assembleN))
	r.set(perLayer, "bitlinker.diff_assemble_ms", ratio(ms(probe.diff), float64(probe.diffN)), fmt.Sprintf("%d transitions", probe.diffN))
	r.set(perLayer, "fabric.static_hash_us", ratio(float64(probe.hash)/1e3, float64(probe.hashN)), fmt.Sprintf("%d hashes", probe.hashN))
	r.set(perLayer, "plan.plan_us", ratio(float64(planNS)/1e3, float64(planN)), fmt.Sprintf("%d replayed PlanForOn", planN))
	r.set(perLayer, "plan.diff_frac", ratio(float64(diff), float64(loads)), fmt.Sprintf("of %d request-path loads", loads))
	r.set(perLayer, "plan.complete_frac", ratio(float64(complete), float64(loads)), fmt.Sprintf("of %d request-path loads", loads))
	r.set(perLayer, "plan.compressed_frac", ratio(float64(compressed), float64(loads)), fmt.Sprintf("of %d request-path loads", loads))
	r.set(perLayer, "core.load_ms", ratio(loadTime/1e6, float64(loadN+beginN)), fmt.Sprintf("%d replayed LoadModuleOn and BeginExecuteOn", loadN+beginN))
	r.set(perLayer, "core.scrub_ms", ratio(float64(scrubNS)/1e6, float64(scrubN)), fmt.Sprintf("%d replayed ScrubOn", scrubN))
	r.set(perLayer, "core.loads_per_req", float64(loads)/n, "")
	r.set(perLayer, "core.scrub_passes_per_req", float64(st.ScrubPasses)/n, "")
	r.set(perLayer, "icap.words_per_req", wireWords/n, "request-path wire words")
	r.set(perLayer, "icap.host_ns_per_word", ratio(loadTime, wireWords), "replayed load host time per wire word")
	r.set(perLayer, "bus.txn_per_req", float64(rp.busTxn)/n, "replayed PLB and OPB transactions")
	r.set(perLayer, "bus.host_ns_per_txn", ratio(loadTime+float64(execNS+finishNS), float64(rp.busTxn)), "replayed load and execute host time per transaction")
	r.set(perLayer, "dock.dma_overlap_frac", ratio(float64(st.OverlapConfig), float64(st.OverlapConfig+st.Config)), "hidden / (hidden + visible) configuration")
	r.set(perLayer, "tasks.exec_us", ratio(float64(execNS+finishNS)/1e3, float64(execN+finishN)), fmt.Sprintf("%d replayed ExecuteOn and FinishExecuteOn", execN+finishN))
	r.set(perLayer, "tasks.sim_work_us_per_req", st.Work.Microseconds()/n, "")
	r.set(perLayer, "sched.hit_rate", st.HitRate(), "")
	r.set(perLayer, "sched.overhead_us_per_req", (float64(twin.run.Nanoseconds())-float64(replayNS+healNS))/1e3/n,
		"untraced scheduled drive minus the replay of the same requests")
	r.set(perLayer, "sched.steals_per_kreq", float64(st.Steals)*1000/n, "")
	r.set(perLayer, "fault.detected_frac", ratio(float64(st.FaultsDetected), injected), fmt.Sprintf("%.0f upsets", injected))
	r.set(perLayer, "fault.repair_sim_ms_per_upset", ratio(st.RepairConfig.Milliseconds(), injected), "")
	pr, tr2 := median(plainRates), median(tracedRates)
	r.set(perLayer, "trace.overhead_pct", 100*(pr-tr2)/pr, fmt.Sprintf("untraced %.4g req/s, traced %.4g req/s", pr, tr2))
	r.set(perLayer, "trace.events_per_req", float64(len(events))/n, "")
	r.set(perLayer, "go.alloc_kb_per_req", alloc/1000/plainReqs, "untraced run phases")
	r.set(perLayer, "go.gc_per_kreq", gcs*1000/plainReqs, "untraced run phases")

	fmt.Fprintf(r.out, "  host self time by span, last traced round, its replay and the layer probes:\n")
	for _, lt := range layers {
		fmt.Fprintf(r.out, "    %-34s %7d calls %12.3f ms total %12.3f ms self\n",
			lt.Name, lt.Count, float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
	return r.writeTrace(outDir, seed, sp, events)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace writes the benchmark's spans and the program's own trace of
// the last traced round.
func (r *report) writeTrace(dir string, seed int64, sp *spanLog, events []trace.Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.w.name, seed))
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		return errors.Join(fn(f), f.Close())
	}
	if err := write(base+"-spans.json", sp.write); err != nil {
		return err
	}
	if err := write(base+"-trace.json", func(w io.Writer) error { return trace.WriteChrome(w, events) }); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "  wrote %s-spans.json and %s-trace.json\n", base, base)
	return nil
}

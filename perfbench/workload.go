package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// drive is how a workload's requests reach the scheduler.
type drive int

const (
	// drivePaced is a closed loop with one outstanding request: the next
	// request is submitted only after the previous result arrived and the
	// scheduler reports Drained, so placement sees a settled pool.
	drivePaced drive = iota
	// driveOpen submits every request with SubmitAt on a Poisson arrival
	// schedule, from one goroutine, without waiting for results.
	driveOpen
	// drivePaired submits two requests as one SubmitBatch round and then
	// settles, so the round-aware gang policy can pair sibling regions.
	drivePaired
)

// workload is one seeded traffic mix together with the pool and scheduler
// configuration it runs on.
type workload struct {
	name string
	why  string

	pool     pool.Config
	shards   int
	batch    int
	policy   string
	compress bool
	dma      bool
	scrub    bool
	// pins are loaded into the slots during set-up, cycling over the
	// slots in pool order; none leaves the pool blank, so the first
	// requests stream cold.
	pins []string
	// mix lists the task types, drawn at equal weight.
	mix   []string
	drive drive
	// rho is the open-loop offered load relative to the pool's all-hit
	// service capacity (driveOpen only).
	rho float64
	// upsetRate is the per-completion probability of a configuration
	// upset; each upset is followed by a scrub of every idle slot.
	upsetRate float64
	// requests is the mean number of requests one round submits.
	requests int
	// simRounds is how many rounds, each on its own derived seeds, make
	// one cycle. The simulated metrics cover the first cycle; later cycles
	// repeat its rounds and must reproduce their simulated results
	// exactly.
	simRounds int
	// cycleSeconds is how long one cycle takes on the reference host (2
	// vCPUs); it turns --seconds into a number of cycles.
	cycleSeconds float64
}

// cycles is how many cycles a run of the given length measures: a count
// of work fixed by the run length, so a faster program runs the same
// cycles in less time and every run of a workload averages alike.
func (w workload) cycles(seconds float64) int {
	return max(1, int(seconds/w.cycleSeconds))
}

// allTasks is every task type the scheduler can run, one module each.
var allTasks = []string{"sha1", "jenkins", "patternmatch", "brightness", "blend", "fade", "transfer"}

// serveMeanService is the mean all-hit jenkins service time on a 32-bit
// board (the calibration the scheduler's open-loop scaling suite uses), so
// rho = 1 offers exactly the pool's service capacity.
const serveMeanService = 60 * sim.Microsecond

var workloads = []workload{
	{
		name:         "churn",
		why:          "7 modules share 4 single-region slots under lru, so about 44% of requests miss and the CPU-store load path (diff assembly, CRC, static hash, HWICAP stores) does the work",
		pool:         pool.Config{Sys32: 2, Sys64: 2},
		shards:       1,
		batch:        1,
		policy:       "lru",
		mix:          allTasks,
		drive:        drivePaced,
		requests:     75,
		simRounds:    3,
		cycleSeconds: 6.5,
	},
	{
		name:         "serve",
		why:          "jenkins pinned in all 8 slots and open-loop arrivals at rho 4 on 2 shards: every request hits, so dispatch, task drivers and the bus data path do the work",
		pool:         pool.Config{Sys32: 8},
		shards:       2,
		batch:        1,
		policy:       "lru",
		pins:         []string{"jenkins"},
		mix:          []string{"jenkins"},
		drive:        driveOpen,
		rho:          4,
		requests:     20000,
		simRounds:    1,
		cycleSeconds: 1.45,
	},
	{
		name:         "dma",
		why:          "compressed streams through the dock DMA engines with gang-paired sibling regions: the only load path that bypasses CPU stores",
		pool:         pool.Config{Sys64: 2, Regions: 2},
		shards:       1,
		batch:        4,
		policy:       "gang",
		compress:     true,
		dma:          true,
		mix:          allTasks,
		drive:        drivePaired,
		requests:     75,
		simRounds:    3,
		cycleSeconds: 8,
	},
	{
		name:         "heal",
		why:          "4 modules pinned on 4 dual-region slots always hit, while upsets drive the readback-CRC scrub on every dispatch, quarantine and repair",
		pool:         pool.Config{Sys64: 2, Regions: 2},
		shards:       1,
		batch:        1,
		policy:       "mincost",
		scrub:        true,
		pins:         []string{"sha1", "jenkins", "brightness", "fade"},
		mix:          []string{"sha1", "jenkins", "brightness", "fade"},
		drive:        drivePaced,
		upsetRate:    0.15,
		requests:     56,
		simRounds:    4,
		cycleSeconds: 8.5,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// trafficSeed fixes the part of every workload's traffic that sets its
// hit/miss pattern: each round's trace of module types (drawn at equal
// weight over the workload's mix), each payload's size class, and the
// fault workload's upset schedule. The run's seed draws the rest: each
// round's length (within 3% of the workload's mean, so a round is a
// prefix of its trace), each payload's size within its class and its
// contents, and the open-loop arrival stamps. Runs on different seeds
// therefore replay the same pattern, and their simulated metrics differ by
// a few percent.
const trafficSeed = 7

// roundSeeds derives round r's traffic and data seeds: rounds cycle
// through simRounds distinct pairs, so every round past the first cycle
// repeats one.
func (w workload) roundSeeds(seed int64, r int) (traffic, data int64) {
	k := int64(r % w.simRounds)
	return trafficSeed*1_000_003 + k, seed*1_000_003 + k
}

// maxRequests is the longest a round can be.
func (w workload) maxRequests() int { return w.requests + w.requests/30 }

// genRequests draws a round's requests: its length from the data seed,
// then that many requests of the traffic seed's trace. Payload sizes span
// the ranges the scheduler's own workload generator uses; the traffic seed
// picks each size's class and the data seed the size within it and the
// contents.
func (w workload) genRequests(traffic, data int64) []tasks.Runner {
	shape := rand.New(rand.NewSource(traffic))
	fill := rand.New(rand.NewSource(data))
	n := w.requests - w.requests/30 + fill.Intn(w.requests/15+1)
	out := make([]tasks.Runner, n)
	for i := range out {
		out[i] = makeRunner(w.mix[shape.Intn(len(w.mix))], shape, fill)
	}
	return out
}

// makeRunner builds one small-payload request of the named task type.
func makeRunner(name string, shape, fill *rand.Rand) tasks.Runner {
	seed := fill.Int63()
	switch name {
	case "sha1":
		return tasks.SHA1Run{Seed: seed, Len: 64 + 16*shape.Intn(32) + fill.Intn(16)}
	case "jenkins":
		return tasks.JenkinsRun{Seed: seed, Len: 64 + 16*shape.Intn(64) + fill.Intn(16), InitVal: fill.Uint32()}
	case "patternmatch":
		return tasks.PatternRun{Seed: seed, W: 32, H: 16 + 8*shape.Intn(3), Threshold: 56}
	case "brightness":
		return tasks.BrightnessRun{Seed: seed, N: 256 + 16*shape.Intn(32) + 8*fill.Intn(2), Delta: fill.Intn(101) - 50}
	case "blend":
		return tasks.BlendRun{Seed: seed, N: 256 + 16*shape.Intn(32) + 8*fill.Intn(2)}
	case "fade":
		return tasks.FadeRun{Seed: seed, N: 256 + 16*shape.Intn(32) + 8*fill.Intn(2), F: fill.Intn(257)}
	case "transfer":
		return tasks.TransferRun{Kind: tasks.TransferKind(shape.Intn(3)), Words: 64 + 16*shape.Intn(12) + fill.Intn(16)}
	}
	panic("perfbench: unknown task " + name)
}

// genArrivals draws the open-loop Poisson arrival stamps: exponential gaps
// whose mean offers rho times the pool's all-hit service capacity.
func (w workload) genArrivals(data int64, n int) []sim.Time {
	rng := rand.New(rand.NewSource(data ^ 0x5EED_A441))
	mean := float64(serveMeanService) / (float64(w.pool.Sys32+w.pool.Sys64) * w.rho)
	out := make([]sim.Time, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-rng.Float64()) * mean
		out[i] = sim.Time(t)
	}
	return out
}

package bench

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/bench/gate"
)

// PlacementRecord is one bench row in its on-disk wire layout — the
// BENCH_sched.json format every suite emits, the CI gate (cmd/benchdiff)
// keys on table+label, and the history store reads its metrics from. It
// is the only row type: each suite's converter fills the shared fields
// plus its own block. The field ORDER and omitempty tags are load-bearing,
// because the committed baseline is diffed byte-for-byte (a golden test
// pins the round trip). Which fields a suite gates, in which direction and
// at which band, is declared once in Suites, keyed by these JSON names.
type PlacementRecord struct {
	Table         string  `json:"table"`
	Label         string  `json:"label"`
	Policy        string  `json:"policy"`
	Planner       bool    `json:"planner"`
	Requests      uint64  `json:"requests"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	DiffLoads     uint64  `json:"diff_loads"`
	CompleteLoads uint64  `json:"complete_loads"`
	ConfigMs      float64 `json:"config_ms"`
	WorkMs        float64 `json:"work_ms"`
	BusyMs        float64 `json:"busy_ms"`
	BytesStreamed uint64  `json:"bytes_streamed"`
	SimUsPerReq   float64 `json:"sim_us_per_req"`

	// Speculation fields of the S3 prefetch and S4 region rows (S4's paced
	// drive leaves Window zero).
	Window              int     `json:"window,omitempty"`
	Predictor           string  `json:"predictor,omitempty"`
	PrefetchHits        uint64  `json:"prefetch_hits,omitempty"`
	PrefetchAborted     uint64  `json:"prefetch_aborted,omitempty"`
	PrefetchBytes       uint64  `json:"prefetch_bytes,omitempty"`
	PrefetchWastedBytes uint64  `json:"prefetch_wasted_bytes,omitempty"`
	HiddenMs            float64 `json:"hidden_ms,omitempty"`

	// S8 compressed/DMA load-path fields; zero for the other tables.
	CompressedLoads uint64  `json:"compressed_loads,omitempty"`
	DMALoads        uint64  `json:"dma_loads,omitempty"`
	OverlapMs       float64 `json:"overlap_ms,omitempty"`

	// Open-loop fields of the S5 replay, the S6 scaling cells and the S9
	// SLO replay; zero for the other tables.
	Shards           int     `json:"shards,omitempty"`
	OfferedLoad      float64 `json:"offered_load,omitempty"`
	ArrivalProcess   string  `json:"arrival_process,omitempty"`
	ThroughputRPS    float64 `json:"throughput_rps,omitempty"`
	SimThroughputRPS float64 `json:"sim_throughput_rps,omitempty"`
	P50Ms            float64 `json:"p50_ms,omitempty"`
	P95Ms            float64 `json:"p95_ms,omitempty"`
	Steals           uint64  `json:"steals,omitempty"`
	StolenRequests   uint64  `json:"stolen_requests,omitempty"`

	// S7 fault-replay fields (P99Ms is shared with the open-loop tables);
	// zero for the other tables.
	FaultsInjected uint64  `json:"faults_injected,omitempty"`
	FaultsDetected uint64  `json:"faults_detected,omitempty"`
	Requeues       uint64  `json:"requeues,omitempty"`
	Repairs        uint64  `json:"repairs,omitempty"`
	RepairMs       float64 `json:"repair_ms,omitempty"`
	Availability   float64 `json:"availability,omitempty"`
	P99Ms          float64 `json:"p99_ms,omitempty"`
}

// Metric declares one quantity a suite's rows contribute to the history
// store: its wire JSON field (also its history name), its unit, the
// direction it regresses in, and the relative band the gate holds it to.
type Metric struct {
	Name         string
	Unit         string
	HigherBetter bool
	BandPct      float64
}

// Suite declares one bench table: its ID, whether its rows reproduce
// byte-identically run to run on one machine, its metrics in history and
// dashboard-panel order, and the committed spec that produces its rows
// (nil for the ad-hoc single run).
type Suite struct {
	ID            string
	Deterministic bool
	Metrics       []Metric
	Spec          Spec
}

// Suites is the one declaration of the bench gates, read by the history
// writer, cmd/benchdiff (the CI gate), cmd/benchboard (the trajectory
// flags) and fpgad's noise sampler.
//
// S2 rows react to goroutine completion order (Upfront placement follows
// whoever finishes first) and swing up to ~30% run to run, so their pair
// carries a 40% band — still far inside the 5x planner-vs-complete signal
// they guard. The S9 percentiles reproduce byte-identically, so any drift
// past 1% is a real latency change. Every other band is 15%.
var Suites = []Suite{
	{ID: "S2", Metrics: economy(40), Spec: DefaultPlacementSpec()},
	{ID: "S3", Deterministic: true, Metrics: economy(15,
		Metric{Name: "hidden_ms", Unit: "ms", HigherBetter: true, BandPct: 15}),
		Spec: DefaultPrefetchSpec()},
	{ID: "S4", Deterministic: true, Metrics: economy(15,
		Metric{Name: "hidden_ms", Unit: "ms", HigherBetter: true, BandPct: 15}),
		Spec: DefaultRegionSpec()},
	{ID: "S5", Deterministic: true, Metrics: economy(15,
		Metric{Name: "p99_ms", Unit: "ms", BandPct: 15},
		Metric{Name: "sim_throughput_rps", Unit: "req/s", HigherBetter: true, BandPct: 15}),
		Spec: ArrivalSpec(DefaultPlacementSpec())},
	// Real throughput is host wall-clock and the percentiles ride
	// concurrent placement; the pair stays exact — zero by the all-hit
	// construction, gated on its absolute epsilon.
	{ID: "S6", Metrics: economy(15,
		Metric{Name: "throughput_rps", Unit: "req/s", HigherBetter: true, BandPct: 15},
		Metric{Name: "p99_ms", Unit: "ms", BandPct: 15}),
		Spec: DefaultScalingSpec()},
	{ID: "S7", Deterministic: true, Metrics: economy(15,
		Metric{Name: "availability", Unit: "frac", HigherBetter: true, BandPct: 15},
		Metric{Name: "repair_ms", Unit: "ms", BandPct: 15}),
		Spec: DefaultFaultSpec()},
	{ID: "S8", Deterministic: true, Metrics: economy(15,
		Metric{Name: "availability", Unit: "frac", HigherBetter: true, BandPct: 15},
		Metric{Name: "overlap_ms", Unit: "ms", HigherBetter: true, BandPct: 15}),
		Spec: DefaultCompressSpec()},
	{ID: "S9", Deterministic: true, Metrics: economy(15,
		Metric{Name: "p50_ms", Unit: "ms", BandPct: 1},
		Metric{Name: "p95_ms", Unit: "ms", BandPct: 1},
		Metric{Name: "p99_ms", Unit: "ms", BandPct: 1}),
		Spec: DefaultSLOSpec()},
	// Ad-hoc fpgad -json runs outside the canonical S2 drive.
	{ID: "single", Metrics: economy(15)},
}

// economy prepends the pair every suite reports and the gate always
// holds — visible configuration time and request-path bytes, the bill the
// whole bench economy is priced in — at the given band.
func economy(bandPct float64, more ...Metric) []Metric {
	return append([]Metric{
		{Name: "config_ms", Unit: "ms", BandPct: bandPct},
		{Name: "bytes_streamed", Unit: "B", BandPct: bandPct},
	}, more...)
}

// SuiteOf returns the declaration of a wire row's table. An empty table is
// an ad-hoc single run from before rows carried one; a table no
// declaration names (a suite newer than the reader) falls back to the
// host-dependent economy pair, so its rows still gate.
func SuiteOf(table string) Suite {
	if table == "" {
		table = "single"
	}
	for _, s := range Suites {
		if s.ID == table {
			return s
		}
	}
	return Suite{ID: table, Metrics: economy(15)}
}

// Gated reports whether the gate holds m: the economy pair on every suite,
// and every declared metric of a deterministic suite. A host-dependent
// suite's other metrics swing with the machine and stay informational.
func (s Suite) Gated(m Metric) bool {
	return s.Deterministic || m.Name == "config_ms" || m.Name == "bytes_streamed"
}

// Check holds a fresh value against its baseline in the metric's direction
// and band; a lower-is-better zero baseline gates on the unit's absolute
// epsilon (gate.ZeroEps).
func (m Metric) Check(base, fresh float64) gate.Verdict {
	if m.HigherBetter {
		return gate.CheckHigherBetter(base, fresh, m.BandPct)
	}
	return gate.Check(base, fresh, m.BandPct, gate.ZeroEps(m.Unit))
}

// wireField maps each wire JSON name to its struct field index, so a
// declared metric reads its value straight off the row.
var wireField = func() map[string]int {
	t := reflect.TypeOf(PlacementRecord{})
	m := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		m[name] = i
	}
	return m
}()

// Value reads the numeric wire field with the given JSON name. Naming a
// field the row does not have, or a non-numeric one, is a declaration bug.
func (r PlacementRecord) Value(name string) float64 {
	i, ok := wireField[name]
	if ok {
		switch f := reflect.ValueOf(r).Field(i); f.Kind() {
		case reflect.Float64:
			return f.Float()
		case reflect.Uint64:
			return float64(f.Uint())
		case reflect.Int:
			return float64(f.Int())
		}
	}
	panic(fmt.Sprintf("bench: %q is not a numeric wire field", name))
}

// Row fills a table's wire row from the run's drive and scheduler stats:
// the shared fields plus the speculation and load-path blocks, which stay
// zero (and so off the wire) for drives without prefetch, compression or
// DMA. The suite's converter adds its own fields.
func (r Run) Row(table string) PlacementRecord {
	st := r.Stats
	var busy float64
	for _, b := range st.BusyTime {
		busy += float64(b.Microseconds())
	}
	policy := r.Drive.Policy
	if policy == "" {
		policy = "lru"
	}
	row := PlacementRecord{
		Table:         table,
		Label:         r.Label,
		Policy:        policy,
		Planner:       !r.Drive.CompleteOnly,
		Requests:      st.Done,
		Hits:          st.Hits,
		Misses:        st.Misses,
		HitRate:       st.HitRate(),
		DiffLoads:     st.DiffLoads,
		CompleteLoads: st.CompleteLoads,
		ConfigMs:      float64(st.Config.Microseconds()) / 1e3,
		WorkMs:        float64(st.Work.Microseconds()) / 1e3,
		BusyMs:        busy / 1e3,
		BytesStreamed: st.BytesStreamed,

		Predictor:           r.Drive.Predictor,
		PrefetchHits:        st.PrefetchHits,
		PrefetchAborted:     st.PrefetchAborted,
		PrefetchBytes:       st.PrefetchBytes,
		PrefetchWastedBytes: st.PrefetchWasted,
		HiddenMs:            float64(st.HiddenConfig.Microseconds()) / 1e3,

		CompressedLoads: st.CompressedLoads,
		DMALoads:        st.DMALoads,
		OverlapMs:       st.OverlapConfig.Microseconds() / 1e3,
	}
	if st.Done > 0 {
		row.SimUsPerReq = busy / float64(st.Done)
	}
	return row
}

package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench/gate"
)

// TestWriterGoldenByteCompat pins the wire layout: decoding the committed
// baseline and re-marshalling it reproduces BENCH_sched.json byte for
// byte. If this fails, the wire layout drifted and every archived
// snapshot (and benchdiff's committed baseline) silently stopped
// round-tripping.
func TestWriterGoldenByteCompat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sched.json"))
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	rows, err := DecodeRecords(data)
	if err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("baseline decoded to zero records")
	}
	out, err := MarshalRecords(rows)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(data, out) {
		t.Fatalf("marshalled rows differ from committed BENCH_sched.json\n got %d bytes, want %d — wire layout drifted", len(out), len(data))
	}
}

// declared reports whether the table holds an explicit entry for id (as
// opposed to SuiteOf's fallback for undeclared tables).
func declared(id string) (Suite, bool) {
	for _, s := range Suites {
		if s.ID == id {
			return s, true
		}
	}
	return Suite{}, false
}

// TestSuitesDeclared: the declaration covers every suite the bench emits
// and every metric the history store holds. The committed baseline is
// what fpgad -compare writes; S5 rides fpgad -arrivals and "single" the
// ad-hoc -json runs. Every declared metric names a numeric wire field.
func TestSuitesDeclared(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range Suites {
		if ids[s.ID] {
			t.Errorf("suite %s declared twice", s.ID)
		}
		ids[s.ID] = true
		names := map[string]bool{}
		for _, m := range s.Metrics {
			if names[m.Name] {
				t.Errorf("%s declares %s twice", s.ID, m.Name)
			}
			names[m.Name] = true
			if m.Unit == "" || m.BandPct <= 0 {
				t.Errorf("%s %s: unit %q band %v", s.ID, m.Name, m.Unit, m.BandPct)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %s: %v", s.ID, m.Name, r)
					}
				}()
				PlacementRecord{}.Value(m.Name)
			}()
		}
		if len(s.Metrics) < 2 || s.Metrics[0].Name != "config_ms" || s.Metrics[1].Name != "bytes_streamed" {
			t.Errorf("%s: does not lead with the config_ms/bytes_streamed pair", s.ID)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sched.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"S5": true, "single": true}
	for _, r := range rows {
		want[r.Table] = true
	}
	for id := range want {
		if _, ok := declared(id); !ok {
			t.Errorf("suite %s is emitted but not declared", id)
		}
	}
	if SuiteOf("").ID != "single" {
		t.Errorf("an untagged row resolves to %q, want single", SuiteOf("").ID)
	}

	// Every (suite, metric, unit) the writer has ever emitted into the
	// committed history is declared, and a suite's declared metrics are
	// exactly the ones it emits.
	entries, skipped, err := gate.LoadEntries(filepath.Join("..", "..", "artifacts", "bench", "history.jsonl"))
	if err != nil || skipped != 0 || len(entries) == 0 {
		t.Fatalf("load history: %v, %d skipped, %d entries", err, skipped, len(entries))
	}
	emitted := map[string]map[string]string{}
	for _, e := range append(entries, HistoryEntries(rows, "baseline")...) {
		_, name := gate.SplitMetric(e.Metric)
		if emitted[e.Suite] == nil {
			emitted[e.Suite] = map[string]string{}
		}
		emitted[e.Suite][name] = e.Unit
	}
	for id, metrics := range emitted {
		s, ok := declared(id)
		if !ok {
			t.Errorf("history suite %s not declared", id)
			continue
		}
		if len(metrics) != len(s.Metrics) {
			t.Errorf("%s: history holds %d metrics, declaration %d", id, len(metrics), len(s.Metrics))
		}
		for _, m := range s.Metrics {
			if unit, ok := metrics[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s: history unit %q (present %v), declared %q", id, m.Name, unit, ok, m.Unit)
			}
		}
	}
}

// TestDeclaredBands pins the resolved gate of each declared metric: its
// suite's determinism, whether it is gated, its direction, band and
// zero-baseline epsilon.
func TestDeclaredBands(t *testing.T) {
	cases := []struct {
		suite, metric string
		det, gated    bool
		higher        bool
		band, zeroEps float64
	}{
		{"S2", "config_ms", false, true, false, 40, 0.01},
		{"S2", "bytes_streamed", false, true, false, 40, 0},
		{"S3", "config_ms", true, true, false, 15, 0.01},
		{"S3", "hidden_ms", true, true, true, 15, 0.01},
		{"S4", "hidden_ms", true, true, true, 15, 0.01},
		{"S5", "p99_ms", true, true, false, 15, 0.01},
		{"S5", "sim_throughput_rps", true, true, true, 15, 0},
		{"S6", "config_ms", false, true, false, 15, 0.01},
		{"S6", "bytes_streamed", false, true, false, 15, 0},
		{"S6", "throughput_rps", false, false, true, 15, 0},
		{"S6", "p99_ms", false, false, false, 15, 0.01},
		{"S7", "availability", true, true, true, 15, 0},
		{"S7", "repair_ms", true, true, false, 15, 0.01},
		{"S8", "availability", true, true, true, 15, 0},
		{"S8", "overlap_ms", true, true, true, 15, 0.01},
		{"S9", "config_ms", true, true, false, 15, 0.01},
		{"S9", "p50_ms", true, true, false, 1, 0.01},
		{"S9", "p95_ms", true, true, false, 1, 0.01},
		{"S9", "p99_ms", true, true, false, 1, 0.01},
		{"single", "config_ms", false, true, false, 15, 0.01},
		{"S99", "bytes_streamed", false, true, false, 15, 0}, // undeclared table
	}
	for _, c := range cases {
		s := SuiteOf(c.suite)
		var m *Metric
		for i := range s.Metrics {
			if s.Metrics[i].Name == c.metric {
				m = &s.Metrics[i]
			}
		}
		if m == nil {
			t.Errorf("%s %s: not declared", c.suite, c.metric)
			continue
		}
		if s.Deterministic != c.det || s.Gated(*m) != c.gated || m.HigherBetter != c.higher ||
			m.BandPct != c.band || gate.ZeroEps(m.Unit) != c.zeroEps {
			t.Errorf("%s %s: det %v gated %v higher %v band %v eps %v; want %v %v %v %v %v",
				c.suite, c.metric, s.Deterministic, s.Gated(*m), m.HigherBetter, m.BandPct, gate.ZeroEps(m.Unit),
				c.det, c.gated, c.higher, c.band, c.zeroEps)
		}
	}
	for _, id := range []string{"S2", "S6", "single"} {
		s, _ := declared(id)
		if len(s.Metrics) == 0 {
			t.Errorf("%s undeclared", id)
		}
		for _, m := range s.Metrics {
			if s.Gated(m) != (m.Name == "config_ms" || m.Name == "bytes_streamed") {
				t.Errorf("host-dependent %s gates %s", id, m.Name)
			}
		}
	}
}

// TestWriterHistoryEntries: every row contributes one history entry per
// declared metric, keyed label/metric under its suite and carrying the
// suite's determinism.
func TestWriterHistoryEntries(t *testing.T) {
	rows := []PlacementRecord{
		{Table: "S2", Label: "lru+planner", Policy: "lru", Planner: true, ConfigMs: 2.0, BytesStreamed: 128},
		{Table: "S7", Label: "burst+scrub", Policy: "mincost", Planner: true, ConfigMs: 1.0, Availability: 0.97},
	}
	entries := HistoryEntries(rows, "abc1234")
	if want := len(SuiteOf("S2").Metrics) + len(SuiteOf("S7").Metrics); len(entries) != want {
		t.Fatalf("%d entries, want %d (one per declared metric)", len(entries), want)
	}
	for _, e := range entries {
		if e.SHA != "abc1234" {
			t.Errorf("entry %+v: wrong sha", e)
		}
		label, name := gate.SplitMetric(e.Metric)
		if label == "" || name == "" {
			t.Errorf("entry metric %q does not split into label/name", e.Metric)
		}
	}
	if e := entries[0]; e.Suite != "S2" || e.Deterministic || e.Metric != "lru+planner/config_ms" || e.Value != 2.0 {
		t.Errorf("S2 entry %+v: want host-dependent config_ms 2.0", e)
	}
	var sawAvail bool
	for _, e := range entries {
		if e.Suite == "S7" && e.Metric == "burst+scrub/availability" {
			sawAvail = true
			if !e.Deterministic || e.Value != 0.97 || e.Unit != "frac" {
				t.Errorf("availability entry %+v", e)
			}
		}
	}
	if !sawAvail {
		t.Error("no S7 availability entry emitted")
	}
}

// TestWriterAppendHistoryRoundTrip appends the rows' history entries and
// reads them back through the gate reader.
func TestWriterAppendHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "history.jsonl")
	rows := []PlacementRecord{{Table: "S4", Label: "paired", Policy: "mincost", Planner: true, ConfigMs: 3.25, BytesStreamed: 99}}
	if err := gate.AppendEntries(path, HistoryEntries(rows, "d00d1e")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := gate.AppendEntries(path, HistoryEntries(rows, "f00dca")); err != nil {
		t.Fatalf("second append: %v", err)
	}
	entries, skipped, err := gate.LoadEntries(path)
	if err != nil || skipped != 0 {
		t.Fatalf("load: err=%v skipped=%d", err, skipped)
	}
	if n := len(SuiteOf("S4").Metrics); len(entries) != 2*n {
		t.Fatalf("%d entries after two appends of %d metrics", len(entries), n)
	}
	if entries[0].SHA != "d00d1e" || entries[len(entries)-1].SHA != "f00dca" {
		t.Errorf("append order lost: first %s last %s", entries[0].SHA, entries[len(entries)-1].SHA)
	}
}

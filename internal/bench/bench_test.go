package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/tasks"
)

func TestResourceTablesWithinDevice(t *testing.T) {
	for _, s := range []*Table{ResourceTable(Sys32()), ResourceTable(Sys64())} {
		if len(s.Rows) < 12 {
			t.Errorf("%s: too few rows (%d)", s.ID, len(s.Rows))
		}
		var buf bytes.Buffer
		s.Format(&buf)
		out := buf.String()
		if !strings.Contains(out, "dynamic area") || !strings.Contains(out, "device capacity") {
			t.Errorf("%s: missing summary rows:\n%s", s.ID, out)
		}
	}
	t32 := ResourceTable(Sys32())
	if !strings.Contains(strings.Join(t32.Rows[len(t32.Rows)-2], " "), "25.0%") {
		t.Error("T1 dynamic area share is not 25.0% (paper §3.1)")
	}
	t64 := ResourceTable(Sys64())
	if !strings.Contains(strings.Join(t64.Rows[len(t64.Rows)-2], " "), "22.4%") {
		t.Error("T6 dynamic area share is not 22.4% (paper §4.1)")
	}
}

func TestHazardTableScenarios(t *testing.T) {
	ht := HazardTable(Sys32())
	if len(ht.Rows) != 5 {
		t.Fatalf("rows = %d", len(ht.Rows))
	}
	expect := [][2]string{
		{"fade", "intact"},
		{"BROKEN", "intact"},
		{"blend", "intact"},
		{"fade", "intact"},
		{"", "CORRUPTED"},
	}
	for i, e := range expect {
		if e[0] != "" && ht.Rows[i][1] != e[0] {
			t.Errorf("row %d bound = %q, want %q", i, ht.Rows[i][1], e[0])
		}
		if ht.Rows[i][2] != e[1] {
			t.Errorf("row %d static = %q, want %q", i, ht.Rows[i][2], e[1])
		}
	}
}

func TestConfigTimeTableShape(t *testing.T) {
	ct := ConfigTimeTable(Sys32())
	raw := ct.Raw()
	if len(raw) != 2 || raw[1] >= raw[0] {
		t.Fatalf("differential (%v) should be faster than complete (%v)", raw[1], raw[0])
	}
}

func TestFiguresRender(t *testing.T) {
	var buf bytes.Buffer
	Figure1(&buf)
	Figure2(&buf)
	Floorplan(&buf, Sys32())
	Floorplan(&buf, Sys64())
	out := buf.String()
	for _, want := range []string{"F1", "F2", "F3", "F4", "XC2VP7", "XC2VP30", "dynamic area", "PPPPPPPP"} {
		if !strings.Contains(out, want) {
			t.Errorf("figures missing %q", want)
		}
	}
	// The 32-bit floorplan must show the dynamic area markers.
	if !strings.Contains(out, "####") {
		t.Error("floorplan missing dynamic-area markers")
	}
}

func TestThroughputTableFromScheduledWorkload(t *testing.T) {
	p, err := pool.New(pool.Config{Sys32: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(p, sched.Options{Batch: 4})
	w := []tasks.Runner{
		tasks.FadeRun{Seed: 1, N: 256, F: 40},
		tasks.FadeRun{Seed: 2, N: 256, F: 80},
		tasks.BrightnessRun{Seed: 3, N: 256, Delta: 4},
	}
	chs := make([]<-chan sched.Result, len(w))
	for i, task := range w {
		chs[i] = s.Submit(task)
	}
	for _, ch := range chs {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s.Wait()
	tb := ThroughputTable(s.Stats())
	if len(tb.Rows) != 3 { // fade, brightness, total
		t.Fatalf("rows = %d, want 3:\n%+v", len(tb.Rows), tb.Rows)
	}
	if hitRate := tb.Raw()[0]; hitRate <= 0 {
		t.Fatalf("hit rate %v, want >0 (second fade rides the warm configuration)", hitRate)
	}
	var buf bytes.Buffer
	tb.Format(&buf)
	if out := buf.String(); !strings.Contains(out, "bitstream cache hit rate") ||
		!strings.Contains(out, "member 0 region 0 simulated busy time") {
		t.Errorf("throughput table output:\n%s", out)
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tb := &Table{ID: "TX", Title: "test", Columns: []string{"a", "bbbb"}}
	tb.AddRow("x", "y")
	tb.Notes = append(tb.Notes, "a note")
	var buf bytes.Buffer
	tb.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "TX — test") || !strings.Contains(out, "note: a note") {
		t.Errorf("format output:\n%s", out)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `[
  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
]`

func TestWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":33.0,"bytes_streamed":2000000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":18.0,"bytes_streamed":1310000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, errw.String(), out.String())
	}
	if !strings.Contains(out.String(), "within tolerance of baseline") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

// TestPerRecordToleranceWidensBand: the band is the suite's declared one,
// not a per-row field. The concurrency-noisy S2 rows pass a swing the
// default band would reject, while the same swing on a deterministic S3
// row fails — even when an older baseline row still carries a wide
// tolerance_pct, which readers ignore.
func TestPerRecordToleranceWidensBand(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000,"tolerance_pct":500}
	]`)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":39.0,"bytes_streamed":2500000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 0 {
		t.Fatalf("exit %d (a +30%% swing must pass a 40%% band); stdout:\n%s", code, out.String())
	}
	// The same +30% swing on the S3 row fails at its declared 15%.
	f2 := write(t, dir, "fresh2.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":25.0,"bytes_streamed":1300000}
	]`)
	out.Reset()
	errw.Reset()
	if code := run([]string{"-baseline", b, "-fresh", f2}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL S3/mincost+prefetch-freq") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

func TestConfigTimeRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":45.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL S2/mincost+planner") || !strings.Contains(errw.String(), "regression(s)") {
		t.Errorf("stdout:\n%s\nstderr:\n%s", out.String(), errw.String())
	}
}

func TestBytesRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":2800000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
}

func TestMissingConfigurationFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "missing from fresh run") {
		t.Errorf("stderr:\n%s", errw.String())
	}
}

func TestNewConfigurationIsReportedNotFailed(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000},
	  {"table":"S3","label":"prefetch+prefetch-markov","config_ms":25.0,"bytes_streamed":1600000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "new  S3/prefetch+prefetch-markov") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	garbled := write(t, dir, "bad.json", "{not json")
	empty := write(t, dir, "empty.json", "[]")
	cases := []struct {
		name string
		args []string
	}{
		{"missing fresh flag", []string{"-baseline", b}},
		{"nonexistent fresh file", []string{"-baseline", b, "-fresh", filepath.Join(dir, "nope.json")}},
		{"garbled fresh file", []string{"-baseline", b, "-fresh", garbled}},
		{"empty baseline", []string{"-baseline", empty, "-fresh", b}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errw.String())
			}
		})
	}
}

// TestZeroBaselineGating: a 0-valued baseline metric cannot be gated in
// percent (any band scaled by zero admits nothing, and a fixed mapping to
// 100% silently passes under a wide per-record tolerance). The gate
// switches to absolute deltas: a fresh value within the per-metric epsilon
// passes, anything beyond it fails regardless of the tolerance band.
func TestZeroBaselineGating(t *testing.T) {
	zeroBase := `[
	  {"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":0,"tolerance_pct":500}
	]`
	cases := []struct {
		name     string
		fresh    string
		wantExit int
		wantOut  string
	}{
		{
			name:     "zero stays zero",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":0}]`,
			wantExit: 0,
			wantOut:  "zero baseline",
		},
		{
			name:     "config time within epsilon",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":0.005,"bytes_streamed":0}]`,
			wantExit: 0,
			wantOut:  "zero baseline",
		},
		{
			name:     "config time grows past epsilon despite wide band",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":5.0,"bytes_streamed":0}]`,
			wantExit: 1,
			wantOut:  "FAIL S7/rate-0+scrub",
		},
		{
			name:     "any byte on a zero-byte baseline fails",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":1}]`,
			wantExit: 1,
			wantOut:  "FAIL S7/rate-0+scrub",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := write(t, dir, "base.json", zeroBase)
			f := write(t, dir, "fresh.json", tc.fresh)
			var out, errw bytes.Buffer
			if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != tc.wantExit {
				t.Fatalf("exit %d, want %d; stdout:\n%s\nstderr:\n%s",
					code, tc.wantExit, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

// agreementCase is one (baseline, fresh) pair of the shared cases file
// that cmd/benchboard's test also reads: benchdiff must print FAIL exactly
// where the dashboard flags, and both exactly where the file says.
type agreementCase struct {
	Suite, Label, Metric string
	Base, Fresh          float64
	Fail                 bool
}

func loadAgreementCases(t *testing.T) []agreementCase {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "bench", "testdata", "gate_agreement.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []agreementCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestGateAgreement: for each shared case, a one-row baseline and fresh
// run differing only in the case's metric fail the gate exactly when the
// case says the dashboard flags it.
func TestGateAgreement(t *testing.T) {
	for _, c := range loadAgreementCases(t) {
		name := c.Suite + "/" + c.Label + "/" + c.Metric
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			row := func(v float64) string {
				data, err := json.Marshal([]map[string]any{{"table": c.Suite, "label": c.Label, c.Metric: v}})
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
			b := write(t, dir, "base.json", row(c.Base))
			f := write(t, dir, "fresh.json", row(c.Fresh))
			var out, errw bytes.Buffer
			code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw)
			failed := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "FAIL "+c.Suite+"/"+c.Label+" ") && strings.Contains(line, " "+c.Metric+" ") {
					failed = true
				}
			}
			if failed != c.Fail || (code == 1) != c.Fail {
				t.Fatalf("%s %v -> %v: exit %d, FAIL printed %v; want fail %v\n%s",
					name, c.Base, c.Fresh, code, failed, c.Fail, out.String())
			}
		})
	}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fpgasim.golden from the current simulator")

// TestRunGolden pins the paper reproduction end to end: the full default
// output — figures, Tables 1–12 and both ablations — must match the
// committed golden byte for byte. Every simulated quantity the paper
// reports (stream sizes, configuration times, transfer and processing
// times, speedups) flows into it, so any drift on the simulated path
// shows here first.
func TestRunGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	path := filepath.Join("testdata", "fpgasim.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to capture): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("output diverged from %s at line %d:\n got  %q\n want %q", path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("output diverged from %s: %d lines, want %d", path, len(got), len(wantLines))
	}
}

func TestRunSingleTable(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-table", "13"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "A1") || !strings.Contains(got, "differential") {
		t.Errorf("table 13 output:\n%s", got)
	}
}

func TestRunFigures(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-figures"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"F1", "F2", "XC2VP7", "XC2VP30"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("figures missing %q", want)
		}
	}
}

func TestRunBadTable(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-table", "99"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "no such table") {
		t.Errorf("stderr: %s", errw.String())
	}
}

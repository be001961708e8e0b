package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// smallDrive is an 8-request two-module workload on two 32-bit boards.
func smallDrive(shape Shape) Drive {
	return Drive{Pool: pool.Config{Sys32: 2}, Policy: "mincost",
		Workload: Workload{Seed: 3, N: 8, Mix: "brightness=1,fade=1", Batch: 2}, Shape: shape}
}

// TestDriveShapes: every submit shape completes the whole workload and
// hands results back in workload order — by submission ID, or for the
// concurrent open-loop feeders by arrival stamp.
func TestDriveShapes(t *testing.T) {
	cases := []struct {
		name  string
		drive Drive
	}{
		{"upfront", smallDrive(Upfront)},
		{"paced", smallDrive(Paced)},
		{"windowed", func() Drive { d := smallDrive(Windowed); d.Window = 3; return d }()},
		{"paired", smallDrive(Paired)},
		{"openloop", func() Drive {
			d := smallDrive(OpenLoop)
			d.Feeders = 2
			for i := 0; i < d.N; i++ {
				d.Arrivals = append(d.Arrivals, sim.Time(i)*sim.Microsecond)
			}
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hooked []uint64
			d := tc.drive
			d.OnResult = func(_ *pool.Pool, _ *sched.Scheduler, r sched.Result) error {
				hooked = append(hooked, r.ID)
				return nil
			}
			out, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Stats.Done != uint64(d.N) || len(out.Results) != d.N || len(hooked) != d.N {
				t.Fatalf("done %d, %d results, %d hook calls; want %d each", out.Stats.Done, len(out.Results), len(hooked), d.N)
			}
			for i, r := range out.Results {
				inOrder := r.ID == uint64(i+1)
				if d.Shape == OpenLoop {
					inOrder = r.Arrival == d.Arrivals[i]
				}
				if !inOrder || hooked[i] != r.ID {
					t.Fatalf("result %d: ID %d arrival %v (hook saw %d), want workload order", i, r.ID, r.Arrival, hooked[i])
				}
			}
		})
	}
}

// TestDriveFailsOnRequestError: a request no slot can host fails the
// drive after it has run, not as a setup error.
func TestDriveFailsOnRequestError(t *testing.T) {
	d := smallDrive(Upfront)
	d.Mix = "sha1=1" // 64-bit only, on a 32-bit pool
	_, err := d.Run()
	if err == nil || !strings.Contains(err.Error(), "no slot supports") {
		t.Fatalf("err = %v, want the unsupported-module request error", err)
	}
	if errors.As(err, new(SetupError)) {
		t.Fatalf("request failure reported as a setup error: %v", err)
	}
}

// TestDriveSetupErrors: a drive that cannot start says so before
// submitting anything.
func TestDriveSetupErrors(t *testing.T) {
	for name, mutate := range map[string]func(*Drive){
		"policy":   func(d *Drive) { d.Policy = "psychic" },
		"mix":      func(d *Drive) { d.Mix = "nosuchtask=1" },
		"pool":     func(d *Drive) { d.Pool = pool.Config{} },
		"arrivals": func(d *Drive) { d.Shape = OpenLoop },
	} {
		d := smallDrive(Paced)
		mutate(&d)
		if _, err := d.Run(); !errors.As(err, new(SetupError)) {
			t.Errorf("%s: err = %v, want a SetupError", name, err)
		}
	}
}

// TestDriveFailsOnCorruptedStaticDesign: a hook that streams a naively
// assembled bitstream into a settled member (the §2.2 hazard) fails the
// drive, and the error names the member.
func TestDriveFailsOnCorruptedStaticDesign(t *testing.T) {
	d := smallDrive(Paced)
	d.OnResult = func(p *pool.Pool, _ *sched.Scheduler, r sched.Result) error {
		if r.ID != 3 {
			return nil
		}
		_, err := p.Members()[1].Sys.Mgr.LoadNaive("brightness")
		return err
	}
	_, err := d.Run()
	if err == nil || !strings.Contains(err.Error(), "member 1 (sys32)") || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("err = %v, want member 1's static design reported corrupted", err)
	}
}

// TestDeclaredSuitesReproduce holds the determinism declaration to
// reality: every suite declared deterministic, run twice at a reduced
// depth, emits byte-identical wire rows.
func TestDeclaredSuitesReproduce(t *testing.T) {
	for _, s := range Suites {
		if !s.Deterministic {
			continue
		}
		t.Run(s.ID, func(t *testing.T) {
			spec := s.Spec.WithN(24)
			var wire [2][]byte
			for i := range wire {
				_, rows, err := spec.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 || rows[0].Table != s.ID || rows[0].Requests != 24 {
					t.Fatalf("rows %+v: want %s rows over 24 requests", rows, s.ID)
				}
				if wire[i], err = MarshalRecords(rows); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(wire[0], wire[1]) {
				t.Fatalf("%s rows differ between identical runs:\n%s\n%s", s.ID, wire[0], wire[1])
			}
		})
	}
}

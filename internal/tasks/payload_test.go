package tasks

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/platform"
	"repro/internal/sim"
)

// runnerData is the SplitMix64 sequence, least significant byte first: seed
// 1 gives the generator's published first outputs 0x910a2dec89025cc1 and
// 0xbeeb8da1658eec67. A changed generator shows up here as a test diff.
func TestRunnerDataPinned(t *testing.T) {
	want := []byte{0xc1, 0x5c, 0x02, 0x89, 0xec, 0x2d, 0x0a, 0x91, 0x67, 0xec, 0x8e, 0x65, 0xa1, 0x8d, 0xeb, 0xbe}
	if got := runnerData(1, 16); !bytes.Equal(got, want) {
		t.Fatalf("runnerData(1, 16) = %#v, want %#v", got, want)
	}
	// A length that is not a multiple of eight is a prefix of the longer fill.
	if got := runnerData(1, 11); !bytes.Equal(got, want[:11]) {
		t.Fatalf("runnerData(1, 11) = %#v, want %#v", got, want[:11])
	}
}

// runOutcome is everything a task's simulated execution leaves behind that
// does not name the payload: the timeline, the core's statistics and the
// bus accounting.
type runOutcome struct {
	work, now        sim.Time
	cpu              cpu.Stats
	plb, opb         [3]uint64
	plbUtil          float64
	bridgeR, bridgeW uint64
}

func runOnce(t *testing.T, mk func() (*platform.System, error), r Runner) runOutcome {
	t.Helper()
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ExecuteOn(0, r.Module(), func() error { return r.Run(s) })
	if err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	o := runOutcome{work: rep.Work, now: s.K.Now(), cpu: s.CPU.Stats(), plbUtil: s.PLB.Utilization()}
	o.plb[0], o.plb[1], o.plb[2] = s.PLB.Stats()
	if s.OPB != nil {
		o.opb[0], o.opb[1], o.opb[2] = s.OPB.Stats()
	}
	if s.Bridge != nil {
		o.bridgeR, o.bridgeW = s.Bridge.Stats()
	}
	return o
}

// The task drivers' simulated cost depends on payload length only: two
// seeds at equal length give the same elapsed time, CPU statistics and bus
// accounting on both systems. This is what lets runnerData use any seeded
// fill without moving a simulated metric.
func TestRunnerTimingIndependentOfPayload(t *testing.T) {
	pairs := func(seed int64) []Runner {
		return []Runner{
			SHA1Run{Seed: seed, Len: 300},
			JenkinsRun{Seed: seed, Len: 301, InitVal: 7},
			BrightnessRun{Seed: seed, N: 520, Delta: 40},
			BlendRun{Seed: seed, N: 520},
			FadeRun{Seed: seed, N: 520, F: 96},
		}
	}
	for _, sys := range []struct {
		name string
		mk   func() (*platform.System, error)
	}{{"sys32", platform.NewSys32}, {"sys64", platform.NewSys64}} {
		probe, err := sys.mk()
		if err != nil {
			t.Fatal(err)
		}
		a, b := pairs(11), pairs(12)
		for i := range a {
			if !probe.Supports(a[i].Module()) {
				continue // sha1 does not fit the 32-bit dynamic area
			}
			oa, ob := runOnce(t, sys.mk, a[i]), runOnce(t, sys.mk, b[i])
			if oa != ob {
				t.Errorf("%s %s: seed 11 gives %+v, seed 12 gives %+v", sys.name, a[i].Name(), oa, ob)
			}
		}
	}
}

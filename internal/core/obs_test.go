package core

import (
	"math"
	"reflect"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/phy"
)

// TestBraidRecorderObservational proves attaching a recorder changes no
// bits of the Result, and that the recorder's totals agree with it.
func TestBraidRecorderObservational(t *testing.T) {
	bare, err := NewBraid(phy.NewModel(), 0.5).RunFresh(1, 10)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	br := NewBraid(phy.NewModel(), 0.5)
	br.Obs = rec
	got, err := br.RunFresh(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Errorf("recorder changed the Result:\nbare: %+v\nwith: %+v", bare, got)
	}

	s := rec.Snapshot()
	if s.BraidRuns != 1 {
		t.Errorf("BraidRuns = %d, want 1", s.BraidRuns)
	}
	if s.Epochs != uint64(got.Epochs) || s.LPSolves != uint64(got.LPSolves) {
		t.Errorf("solver counters (%d/%d) disagree with Result (%d/%d)",
			s.Epochs, s.LPSolves, got.Epochs, got.LPSolves)
	}
	if s.Switches != uint64(got.Switches) {
		t.Errorf("Switches = %d, want %d", s.Switches, got.Switches)
	}
	// Fixed-point totals: within half a quantization unit of the Result.
	checks := []struct {
		name      string
		rec, want float64
		tol       float64
	}{
		{"Bits", s.Bits, got.Bits, 1.0 / 256},
		{"AirTime", s.AirTime, float64(got.Duration), 1e-6},
		{"DrainTX", s.DrainTX, float64(got.Drain1), 1e-9},
		{"DrainRX", s.DrainRX, float64(got.Drain2), 1e-9},
		{"SwitchEnergy", s.SwitchEnergy, float64(got.SwitchEnergy1 + got.SwitchEnergy2), 1e-9},
	}
	for _, c := range checks {
		if math.Abs(c.rec-c.want) > c.tol {
			t.Errorf("%s = %v, want %v (±%v)", c.name, c.rec, c.want, c.tol)
		}
	}
	for m, bits := range got.ModeBits {
		if math.Abs(s.ModeBits[m]-bits) > 1.0/256 {
			t.Errorf("ModeBits[%v] = %v, want %v", m, s.ModeBits[m], bits)
		}
	}
	if s.EnergyPerBit.Count != 1 {
		t.Errorf("EnergyPerBit.Count = %d, want 1", s.EnergyPerBit.Count)
	}
	if s.LPSolveLatency.Count != uint64(got.LPSolves) {
		t.Errorf("LPSolveLatency.Count = %d, want %d solves", s.LPSolveLatency.Count, got.LPSolves)
	}
	// Mode *time* fractions must sum to 1 over a completed run.
	var timeSum float64
	for _, m := range phy.Modes {
		timeSum += s.ModeTimeFraction(m)
	}
	if math.Abs(timeSum-1) > 1e-3 {
		t.Errorf("mode time fractions sum to %v, want 1", timeSum)
	}
}

// TestBraidDefaultRecorder checks the process-default fallback: a braid
// with no explicit recorder reports to the one obs.SetDefault installs.
func TestBraidDefaultRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	obs.SetDefault(rec)
	defer obs.SetDefault(nil)
	if _, err := NewBraid(phy.NewModel(), 0.5).RunFresh(0.1, 1); err != nil {
		t.Fatal(err)
	}
	if rec.BraidRuns.Load() != 1 {
		t.Errorf("default recorder saw %d braid runs, want 1", rec.BraidRuns.Load())
	}
}

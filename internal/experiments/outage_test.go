package experiments

import (
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// TestFadeEdgeMatchesAvailable replays every one of ext-outage's draws
// and demands that its distance's fade edge give phy.Available's own
// verdict, whether decided by the edge or inside its guard band.
func TestFadeEdgeMatchesAvailable(t *testing.T) {
	base := phy.NewModel()
	draws, inBand := 0, 0
	for _, kf := range outageKFactors {
		outageFades(kf.k, func(d float64, margins []units.DB) {
			edge := newFadeEdge(base, units.Meter(d))
			faded := *base
			for _, m := range margins {
				got, exact := edge.available(m)
				faded.FadeMargin = m
				if want := faded.Available(phy.ModeBackscatter, units.Meter(d)); got != want {
					t.Fatalf("%s, %.2f m, margin %v dB: edge says %v, Available %v", kf.name, d, m, got, want)
				}
				draws++
				if exact {
					inBand++
				}
			}
		})
	}
	if want := 2 * 19 * outageDraws; draws != want {
		t.Fatalf("%d draws, want %d", draws, want)
	}
	t.Logf("%d draws, %d within %g dB of their edge", draws, inBand, float64(fadeGuard))
}

// TestFadeEdgeBracketsFlip: the bisected edge is a nanodecibel wide with
// Available on its near side, and a model that is never available spans
// every margin, sending each one to the exact call.
func TestFadeEdgeBracketsFlip(t *testing.T) {
	e := newFadeEdge(phy.NewModel(), 1.5)
	if !e.exact(e.lo) || e.exact(e.hi) || e.hi-e.lo > 1e-9 {
		t.Fatalf("edge [%v, %v] does not bracket the flip", e.lo, e.hi)
	}
	if ok, inBand := e.available(e.lo - 1); !ok || inBand {
		t.Errorf("1 dB inside the edge: available %v, in band %v", ok, inBand)
	}
	if ok, inBand := e.available(e.hi + 1); ok || inBand {
		t.Errorf("1 dB past the edge: available %v, in band %v", ok, inBand)
	}
	far := newFadeEdge(phy.NewModel(), 1e30)
	if ok, inBand := far.available(-20); ok || !inBand {
		t.Errorf("unreachable distance: available %v, in band %v", ok, inBand)
	}
}

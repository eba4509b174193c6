package braidio

import (
	"errors"
	"math"
	"testing"
)

// FuzzPublicAPI drives a Pair's entry points with arbitrary battery
// capacities, distance, bit budget, rate and seed. No call may panic. A
// capacity that is not positive and finite, on either side, must give an
// error that errors.Is ErrBadDevice from every entry point that reads
// the capacities: TransferBits checks its budget first, so with a bad
// budget it need only fail. A Result returned with a nil error must have
// finite, non-negative Bits, Drain1 and Drain2.
func FuzzPublicAPI(f *testing.F) {
	const watch, phone, d, bits, rate = 0.78, 6.55, 0.5, 1e6, 1e4
	nan, inf := math.NaN(), math.Inf(1)
	// The capacities TestBadDeviceIsAnError covers, on either side, and
	// the extremes of a positive finite float.
	for _, c := range []float64{0, -1, nan, inf, 1e-300, math.MaxFloat64} {
		f.Add(c, phone, d, bits, rate, uint64(1))
		f.Add(watch, c, d, bits, rate, uint64(2))
	}
	for _, dist := range []float64{0, -1, nan, inf, 1e9} {
		f.Add(watch, phone, dist, bits, rate, uint64(3))
	}
	for _, v := range []float64{0, -1, nan, inf} {
		f.Add(watch, phone, d, v, rate, uint64(4))
		f.Add(watch, phone, d, bits, v, uint64(5))
	}
	f.Fuzz(func(t *testing.T, txWh, rxWh, dist, bitBudget, minRate float64, seed uint64) {
		p := NewPair(CustomDevice("tx", WattHour(txWh)), CustomDevice("rx", WattHour(rxWh)), Meter(dist))
		badDevice := !positiveFinite(txWh) || !positiveFinite(rxWh)
		// check applies the error rules to one entry point's error.
		check := func(call string, err error) {
			t.Helper()
			if badDevice && !errors.Is(err, ErrBadDevice) {
				t.Errorf("%s with capacities %v/%v Wh: err = %v, want %v", call, txWh, rxWh, err, ErrBadDevice)
			}
		}
		checkResult := func(call string, r *Result, err error) {
			t.Helper()
			if err != nil {
				return
			}
			for _, v := range []float64{r.Bits, float64(r.Drain1), float64(r.Drain2)} {
				if !(v >= 0) || math.IsInf(v, 1) {
					t.Errorf("%s returned bits %v, drains %v/%v with a nil error", call, r.Bits, r.Drain1, r.Drain2)
					break
				}
			}
		}

		p.Regime()
		p.Links()
		_, err := p.Plan()
		check("Plan", err)
		_, err = p.PlanQoS(BitRate(minRate))
		check("PlanQoS", err)
		r, err := p.Transfer()
		check("Transfer", err)
		checkResult("Transfer", r, err)
		r, err = p.TransferBits(bitBudget)
		if positiveFinite(bitBudget) {
			check("TransferBits", err)
		} else if err == nil {
			t.Errorf("TransferBits(%v): nil error", bitBudget)
		}
		checkResult("TransferBits", r, err)
		_, err = p.GainVsBluetooth()
		check("GainVsBluetooth", err)
		_, err = p.GainVsBestMode()
		check("GainVsBestMode", err)
		s, err := p.NewSession(seed)
		check("NewSession", err)
		if err == nil {
			for i := 0; i < 3; i++ {
				s.SendFrame(64)
			}
		}
		dx, err := p.NewDuplex(seed)
		check("NewDuplex", err)
		if err == nil {
			dx.Exchange(64)
		}
	})
}

// positiveFinite is the rule the library applies to capacities and bit
// budgets.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

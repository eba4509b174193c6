package phy

import (
	"math"
	"strings"
	"testing"

	"braidio/internal/modem"
	"braidio/internal/rf"
	"braidio/internal/units"
)

// The reference implementations below are the link model as it was
// before the SNR-target table and the single per-rate evaluation: every
// SNR solves its target with modem.SNRForBER, and a characterization
// evaluates the chosen rate again for its BER and its SNR column. The
// tests pin the production paths to them bit for bit.

func refSNRTarget(mode Mode, r units.BitRate) units.DB {
	return units.DBFromRatio(modem.SNRForBER(SchemeAt(mode, r), RangeBERTarget))
}

func refSNR(m *Model, mode Mode, r units.BitRate, d units.Meter) units.DB {
	noise := Sensitivity(mode, r).Sub(refSNRTarget(mode, r))
	return rf.SINR(m.ReceivedPower(mode, d), noise, m.Interference)
}

func refBER(m *Model, mode Mode, r units.BitRate, d units.Meter) float64 {
	return modem.BERFromDB(SchemeAt(mode, r), refSNR(m, mode, r, d))
}

func refBestRate(m *Model, mode Mode, d units.Meter) (units.BitRate, bool) {
	if mode == ModeActive {
		if refBER(m, mode, units.Rate1M, d) <= RangeBERTarget {
			return units.Rate1M, true
		}
		return 0, false
	}
	for _, r := range Rates {
		if refBER(m, mode, r, d) <= RangeBERTarget {
			return r, true
		}
	}
	return 0, false
}

func refLink(m *Model, mode Mode, r units.BitRate, ber float64) ModeLink {
	t, rx := units.JoulesPerBit(math.Inf(1)), units.JoulesPerBit(math.Inf(1))
	if good := m.goodput(mode, r, ber); good > 0 {
		t, rx = units.PerBit(TXPower(mode, r), good), units.PerBit(RXPower(mode, r), good)
	}
	return ModeLink{Mode: mode, Rate: r, BER: ber, Good: m.goodput(mode, r, ber), T: t, R: rx}
}

// refCharacterize returns the old Characterize's links and, per link,
// the old CharacterizeColumns' SNR column value.
func refCharacterize(m *Model, d units.Meter) ([]ModeLink, []units.DB) {
	var out []ModeLink
	var snrs []units.DB
	for _, mode := range Modes {
		r, ok := refBestRate(m, mode, d)
		if !ok {
			continue
		}
		out = append(out, refLink(m, mode, r, refBER(m, mode, r, d)))
		snrs = append(snrs, refSNR(m, mode, r, d))
	}
	return out, snrs
}

func refSharedCarrierLink(m *Model, dForward, dReverse units.Meter) (ModeLink, bool) {
	for _, r := range Rates {
		rx := m.RoundTrip.Received(CarrierPower, dForward, dReverse).Sub(m.FadeMargin)
		noise := BackscatterSensitivity(r).Sub(refSNRTarget(ModeBackscatter, r))
		ber := modem.BERFromDB(SchemeAt(ModeBackscatter, r), rf.SINR(rx, noise, m.Interference))
		if ber > RangeBERTarget {
			continue
		}
		good := m.goodput(ModeBackscatter, r, ber)
		if good <= 0 {
			continue
		}
		return ModeLink{
			Mode: ModeBackscatter, Rate: r, BER: ber, Good: good,
			T: units.PerBit(BackscatterTXPower(r), good),
			R: units.PerBit(PassiveRXPower(r), good),
		}, true
	}
	return ModeLink{}, false
}

func refRange(m *Model, mode Mode, r units.BitRate) units.Meter {
	rx := func(d units.Meter) units.DBm { return m.ReceivedPower(mode, d) }
	sens := Sensitivity(mode, r)
	if m.Interference > 0 {
		noiseMW := math.Pow(10, float64(sens.Sub(refSNRTarget(mode, r)))/10)
		sens = sens.Add(units.DB(10 * math.Log10(1+m.Interference/noiseMW)))
	}
	d, ok := rf.RangeForSensitivity(rx, sens, 0.01, 10000)
	if !ok {
		return 0
	}
	return d
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameLink(a, b ModeLink) bool {
	return a.Mode == b.Mode && a.Rate == b.Rate && sameBits(a.BER, b.BER) &&
		sameBits(float64(a.Good), float64(b.Good)) &&
		sameBits(float64(a.T), float64(b.T)) && sameBits(float64(a.R), float64(b.R))
}

// gridModels is every model setting the differential grid covers:
// FadeMargin {0, 6 dB} × Interference {none, far below every mode's
// noise floor (−120 dBm), dominating every mode's floor (−30 dBm)} ×
// Retransmit {false, true}.
func gridModels() []*Model {
	var out []*Model
	for _, fade := range []units.DB{0, 6} {
		for _, interf := range []float64{0, 1e-12, 1e-3} {
			for _, arq := range []bool{false, true} {
				m := NewModel()
				m.FadeMargin, m.Interference, m.Retransmit = fade, interf, arq
				out = append(out, m)
			}
		}
	}
	return out
}

// gridDistances spans 0.01 m – 2 km log-spaced, plus each calibrated
// mode/rate's clean range and the next float64 on either side of it —
// the points where BestRate changes its answer.
func gridDistances() []units.Meter {
	var out []units.Meter
	const n = 600
	for i := 0; i <= n; i++ {
		out = append(out, units.Meter(0.01*math.Pow(2000/0.01, float64(i)/n)))
	}
	m := NewModel()
	for _, mode := range Modes {
		for _, r := range Rates {
			d := float64(m.Range(mode, r))
			out = append(out, units.Meter(math.Nextafter(d, 0)), units.Meter(d), units.Meter(math.Nextafter(d, math.Inf(1))))
		}
	}
	return out
}

func TestSNRTargetTableMatchesSolver(t *testing.T) {
	for _, mode := range Modes {
		for _, r := range Rates {
			got, want := SNRTarget(mode, r), refSNRTarget(mode, r)
			if !sameBits(float64(got), float64(want)) {
				t.Errorf("%v@%v: table %v != solver %v", mode, r, got, want)
			}
		}
	}
}

// TestSNRTargetOffCalibration covers pairs outside Modes × Rates: the
// table is keyed by scheme, so they read the entry SchemeAt maps them to.
func TestSNRTargetOffCalibration(t *testing.T) {
	// The active link's sensitivity does not depend on rate, so an
	// uncalibrated active rate still has a well-defined SNR.
	m := NewModel()
	for _, r := range []units.BitRate{2_000_000, 12345} {
		if got, want := SNRTarget(ModeActive, r), refSNRTarget(ModeActive, r); !sameBits(float64(got), float64(want)) {
			t.Errorf("active@%v: %v != solver %v", r, got, want)
		}
		if got, want := m.SNR(ModeActive, r, 3), refSNR(m, ModeActive, r, 3); !sameBits(float64(got), float64(want)) {
			t.Errorf("active@%v SNR: %v != reference %v", r, got, want)
		}
	}
	// An unknown mode maps to OOK; the target alone does not panic.
	for _, mode := range []Mode{-1, 3, 9} {
		if got, want := SNRTarget(mode, units.Rate1M), refSNRTarget(mode, units.Rate1M); !sameBits(float64(got), float64(want)) {
			t.Errorf("%v: %v != solver %v", mode, got, want)
		}
	}
}

func TestUnknownModePanics(t *testing.T) {
	m := NewModel()
	for name, f := range map[string]func(){
		"SNR":       func() { m.SNR(Mode(9), units.Rate1M, 1) },
		"BER":       func() { m.BER(Mode(9), units.Rate100k, 1) },
		"BestRate":  func() { m.BestRate(Mode(9), 1) },
		"Available": func() { m.Available(Mode(-1), 1) },
		"LinkAt":    func() { m.LinkAt(Mode(9), units.Rate10k, 1) },
		"Range":     func() { m.Range(Mode(9), units.Rate1M) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "phy: unknown mode") {
					t.Errorf("%s: panic %q, want phy: unknown mode", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestCharacterizeMatchesReference pins every characterization entry
// point to the per-call reference over the whole grid: BestRate, every
// ModeLink field of Characterize, CharacterizeInto and LinkAt, and every
// column of CharacterizeColumns including the SNR bits.
func TestCharacterizeMatchesReference(t *testing.T) {
	dists := gridDistances()
	var cols LinkColumns
	var buf []ModeLink
	for mi, m := range gridModels() {
		cols.Reset(len(dists))
		for k, d := range dists {
			want, wantSNR := refCharacterize(m, d)
			got := m.Characterize(d)
			buf = m.CharacterizeInto(buf, d)
			m.CharacterizeColumns(&cols, k, d)
			if len(got) != len(want) || len(buf) != len(want) || int(cols.Len[k]) != len(want) {
				t.Fatalf("model %d d=%v: %d/%d/%d links, want %d", mi, float64(d), len(got), len(buf), cols.Len[k], len(want))
			}
			row := cols.Row(k, make([]ModeLink, NumModes))
			for i := range want {
				if !sameLink(got[i], want[i]) || !sameLink(buf[i], want[i]) || !sameLink(row[i], want[i]) {
					t.Fatalf("model %d d=%v link %d: got %+v / %+v / %+v, want %+v", mi, float64(d), i, got[i], buf[i], row[i], want[i])
				}
				if s := cols.SNR[k*NumModes+i]; !sameBits(float64(s), float64(wantSNR[i])) {
					t.Fatalf("model %d d=%v link %d: SNR column %v, want %v", mi, float64(d), i, s, wantSNR[i])
				}
			}
			for _, mode := range Modes {
				r, ok := m.BestRate(mode, d)
				wr, wok := refBestRate(m, mode, d)
				if r != wr || ok != wok {
					t.Fatalf("model %d d=%v %v: BestRate %v/%v, want %v/%v", mi, float64(d), mode, r, ok, wr, wok)
				}
				for _, r := range Rates {
					if got, want := m.LinkAt(mode, r, d), refLink(m, mode, r, refBER(m, mode, r, d)); !sameLink(got, want) {
						t.Fatalf("model %d d=%v %v@%v: LinkAt %+v, want %+v", mi, float64(d), mode, r, got, want)
					}
				}
			}
		}
	}
}

// TestSharedCarrierLinkAndRangeMatchReference covers the two other
// readers of the SNR-target table on the same model grid.
func TestSharedCarrierLinkAndRangeMatchReference(t *testing.T) {
	all := gridDistances()
	var dists []units.Meter
	for i := 0; i < len(all); i += 15 {
		dists = append(dists, all[i])
	}
	for mi, m := range gridModels() {
		for _, df := range dists {
			for _, dr := range dists {
				got, ok := m.SharedCarrierLink(df, dr)
				want, wok := refSharedCarrierLink(m, df, dr)
				if ok != wok || !sameLink(got, want) {
					t.Fatalf("model %d %v/%v m: shared %+v/%v, want %+v/%v", mi, float64(df), float64(dr), got, ok, want, wok)
				}
			}
		}
		for _, mode := range Modes {
			for _, r := range Rates {
				if got, want := m.Range(mode, r), refRange(m, mode, r); !sameBits(float64(got), float64(want)) {
					t.Errorf("model %d %v@%v: Range %v, want %v", mi, mode, r, got, want)
				}
			}
		}
	}
}

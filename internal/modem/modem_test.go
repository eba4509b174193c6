package modem

import (
	"math"
	"testing"
	"testing/quick"

	"braidio/internal/rng"
	"braidio/internal/units"
)

func TestBERBoundaries(t *testing.T) {
	for _, s := range []Scheme{OOKNonCoherent, FSKNonCoherent, PSKCoherent} {
		if got := BER(s, 0); got != 0.5 {
			t.Errorf("%v: BER at zero SNR = %v, want 0.5", s, got)
		}
		if got := BER(s, -3); got != 0.5 {
			t.Errorf("%v: BER at negative SNR = %v, want 0.5", s, got)
		}
		if got := BER(s, 1e6); got > 1e-12 {
			t.Errorf("%v: BER at huge SNR = %v, want ≈0", s, got)
		}
	}
}

func TestBERMonotoneDecreasing(t *testing.T) {
	for _, s := range []Scheme{OOKNonCoherent, FSKNonCoherent, PSKCoherent} {
		f := func(raw uint16) bool {
			snr := float64(raw%1000)/10 + 0.1
			return BER(s, snr+1) < BER(s, snr)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

// TestSchemeOrdering: at the same SNR, coherent PSK beats non-coherent
// FSK, which beats non-coherent OOK — the robustness hierarchy behind the
// modes' different ranges.
func TestSchemeOrdering(t *testing.T) {
	for _, snr := range []float64{4, 8, 16} {
		ook := BER(OOKNonCoherent, snr)
		fsk := BER(FSKNonCoherent, snr)
		psk := BER(PSKCoherent, snr)
		if !(psk < fsk && fsk < ook) {
			t.Errorf("snr=%v: ordering violated: psk=%v fsk=%v ook=%v", snr, psk, fsk, ook)
		}
	}
}

func TestSNRForBERInverts(t *testing.T) {
	for _, s := range []Scheme{OOKNonCoherent, FSKNonCoherent, PSKCoherent} {
		for _, target := range []float64{1e-2, 1e-3, 1e-4} {
			snr := SNRForBER(s, target)
			if got := BER(s, snr); math.Abs(math.Log10(got)-math.Log10(target)) > 0.02 {
				t.Errorf("%v target %v: BER(SNRForBER) = %v", s, target, got)
			}
		}
	}
}

func TestSNRForBERKnownValue(t *testing.T) {
	// OOK at 1% BER: γ = −4·ln(0.02) ≈ 15.6 (≈11.9 dB).
	got := SNRForBER(OOKNonCoherent, 0.01)
	if math.Abs(got-15.65) > 0.05 {
		t.Errorf("OOK SNR@1%% = %v, want ≈15.65", got)
	}
}

func TestSNRForBERPanics(t *testing.T) {
	for _, bad := range []float64{0, 0.5, 1, -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("target %v did not panic", bad)
				}
			}()
			SNRForBER(OOKNonCoherent, bad)
		}()
	}
}

func TestBERFromDB(t *testing.T) {
	if got, want := BERFromDB(OOKNonCoherent, 10), BER(OOKNonCoherent, 10.0); got != want {
		t.Errorf("BERFromDB(10 dB) = %v, want BER(10×) = %v", got, want)
	}
	_ = units.DB(0)
}

// TestMonteCarloValidatesAnalytic runs the simulated detector against the
// analytic expressions in the regime the experiments use.
func TestMonteCarloValidatesAnalytic(t *testing.T) {
	r := rng.New(99)
	for _, s := range []Scheme{OOKNonCoherent, FSKNonCoherent, PSKCoherent} {
		for _, snr := range []float64{6, 10, 16} {
			analytic := BER(s, snr)
			if analytic < 5e-5 {
				continue // would need too many samples
			}
			mc := MonteCarloBER(s, snr, 400000, r)
			ratio := mc / analytic
			if ratio < 0.3 || ratio > 3 {
				t.Errorf("%v snr=%v: Monte-Carlo %v vs analytic %v (ratio %v)", s, snr, mc, analytic, ratio)
			}
		}
	}
}

// TestMonteCarloBERMatchesShardLoop pins MonteCarloBER's draws: the
// estimate equals summing monteCarloErrors over explicit 64 Ki shards
// drawn from rng.Substreams in index order.
func TestMonteCarloBERMatchesShardLoop(t *testing.T) {
	const n, seed = 150000, 12345
	streams := rng.Substreams(seed, 3) // ceil(150000/65536) = 3 shards
	errs := 0
	for i, size := range []int{65536, 65536, n - 2*65536} {
		errs += monteCarloErrors(OOKNonCoherent, 9, size, streams[i])
	}
	want := float64(errs) / float64(n)
	if got := MonteCarloBER(OOKNonCoherent, 9, n, rng.New(seed)); got != want {
		t.Fatalf("MonteCarloBER %v vs explicit shard loop %v", got, want)
	}
}

func TestMonteCarloZeroSNR(t *testing.T) {
	r := rng.New(5)
	if got := MonteCarloBER(OOKNonCoherent, 0, 100, r); got != 0.5 {
		t.Errorf("MC at zero SNR = %v, want 0.5", got)
	}
}

func TestMonteCarloPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=0":        func() { MonteCarloBER(OOKNonCoherent, 1, 0, rng.New(1)) },
		"nil stream": func() { MonteCarloBER(OOKNonCoherent, 1, 10, nil) },
		"bad scheme": func() { MonteCarloBER(Scheme(99), 1, 10, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSchemeString(t *testing.T) {
	if OOKNonCoherent.String() == "" || Scheme(42).String() == "" {
		t.Error("empty scheme names")
	}
}

func BenchmarkAnalyticBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BER(OOKNonCoherent, 12.3)
	}
}

// TestQAM16 pins the extension modulation: at the same per-bit SNR,
// 16-QAM errs more than BPSK (denser constellation) but carries 4
// bits/symbol; SNRForBER inverts it like the others.
func TestQAM16(t *testing.T) {
	for _, snr := range []float64{4, 10, 20} {
		if BER(QAM16Coherent, snr) <= BER(PSKCoherent, snr) {
			t.Errorf("snr %v: 16-QAM should err more than BPSK", snr)
		}
	}
	for _, target := range []float64{1e-2, 1e-4} {
		snr := SNRForBER(QAM16Coherent, target)
		if got := BER(QAM16Coherent, snr); math.Abs(math.Log10(got)-math.Log10(target)) > 0.02 {
			t.Errorf("target %v: BER(SNRForBER) = %v", target, got)
		}
	}
	if QAM16Coherent.String() == "" {
		t.Error("empty scheme name")
	}
	if QAM16BitsPerSymbol != 4 {
		t.Error("16-QAM carries 4 bits/symbol")
	}
	if got := BER(QAM16Coherent, 0); got != 0.5 {
		t.Errorf("zero-SNR BER = %v", got)
	}
}

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

func TestOOKWaveformRoundTrip(t *testing.T) {
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	wave := OOKWaveform(bits, 8, 0.1, 1.0)
	if len(wave) != len(bits)*8 {
		t.Fatalf("waveform length %d, want %d", len(wave), len(bits)*8)
	}
	got := DetectOOK(wave, 8, 0.1, 1.0)
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("noiseless round trip corrupted bit %d", i)
		}
	}
}

func TestOOKWaveformRoundTripNoisy(t *testing.T) {
	r := rng.New(1)
	bits := make([]byte, 512)
	for i := range bits {
		bits[i] = r.Bit()
	}
	wave := OOKWaveform(bits, 16, 0, 1)
	for i := range wave {
		wave[i] += 0.15 * r.Norm()
	}
	got := DetectOOK(wave, 16, 0, 1)
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	// Integration over 16 samples cuts the effective noise to σ/4;
	// errors should be essentially zero.
	if errs > 2 {
		t.Errorf("%d errors out of %d at high SNR", errs, len(bits))
	}
}

func TestOOKRoundTripProperty(t *testing.T) {
	f := func(raw []byte, spbRaw uint8) bool {
		spb := int(spbRaw%8) + 1
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		wave := OOKWaveform(bits, spb, 0, 1)
		got := DetectOOK(wave, spb, 0, 1)
		if len(got) != len(bits) {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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

func TestSchemeForMode(t *testing.T) {
	if SchemeForMode(true) != OOKNonCoherent {
		t.Error("passive/backscatter should use OOK envelope detection")
	}
	if SchemeForMode(false) != PSKCoherent {
		t.Error("active should use coherent detection")
	}
}

func TestWaveformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("samplesPerBit=0 did not panic")
		}
	}()
	OOKWaveform([]byte{1}, 0, 0, 1)
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

// TestDetectOOKTruncatesPartialBit pins the truncation contract: a
// trailing partial bit period decodes no bit, and DetectOOKInto reports
// exactly the whole-period sample count as consumed.
func TestDetectOOKTruncatesPartialBit(t *testing.T) {
	bits := []byte{1, 0, 1}
	wave := OOKWaveform(bits, 8, 0, 1)
	// Append 5 samples of a fourth, partial bit period.
	partial := append(append([]float64{}, wave...), 1, 1, 1, 1, 1)
	got := DetectOOK(partial, 8, 0, 1)
	if len(got) != len(bits) {
		t.Fatalf("decoded %d bits from %d samples, want %d (partial period discarded)", len(got), len(partial), len(bits))
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d corrupted", i)
		}
	}
	dec, consumed := DetectOOKInto(nil, partial, 8, 0, 1)
	if consumed != len(bits)*8 {
		t.Errorf("consumed %d samples, want %d", consumed, len(bits)*8)
	}
	if len(partial)-consumed != 5 {
		t.Errorf("unconsumed tail %d samples, want the 5 partial-period samples", len(partial)-consumed)
	}
	if len(dec) != len(bits) {
		t.Errorf("DetectOOKInto decoded %d bits, want %d", len(dec), len(bits))
	}
	// An exact multiple consumes everything.
	if _, consumed := DetectOOKInto(nil, wave, 8, 0, 1); consumed != len(wave) {
		t.Errorf("full periods: consumed %d of %d", consumed, len(wave))
	}
	// Fewer samples than one period: nothing decoded, nothing consumed.
	if dec, consumed := DetectOOKInto(nil, wave[:7], 8, 0, 1); len(dec) != 0 || consumed != 0 {
		t.Errorf("sub-period input decoded %d bits, consumed %d", len(dec), consumed)
	}
}

// TestIntoVariantsMatchAndReuse: the Into variants produce identical
// results to the allocating functions and reuse caller buffers.
func TestIntoVariantsMatchAndReuse(t *testing.T) {
	r := rng.New(3)
	bits := make([]byte, 257)
	for i := range bits {
		bits[i] = r.Bit()
	}
	want := OOKWaveform(bits, 8, 0.1, 0.9)
	waveBuf := make([]float64, 0, len(bits)*8)
	got := OOKWaveformInto(waveBuf, bits, 8, 0.1, 0.9)
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	if &got[0] != &waveBuf[:1][0] {
		t.Error("OOKWaveformInto did not reuse the caller's buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	for i := range got {
		got[i] += 0.02 * r.Norm()
	}
	wantBits := DetectOOK(got, 8, 0.1, 0.9)
	bitBuf := make([]byte, 0, len(bits))
	gotBits, consumed := DetectOOKInto(bitBuf, got, 8, 0.1, 0.9)
	if consumed != len(got) {
		t.Fatalf("consumed %d of %d", consumed, len(got))
	}
	if len(gotBits) != len(wantBits) {
		t.Fatalf("bit count %d vs %d", len(gotBits), len(wantBits))
	}
	if &gotBits[0] != &bitBuf[:1][0] {
		t.Error("DetectOOKInto did not reuse the caller's buffer")
	}
	for i := range wantBits {
		if gotBits[i] != wantBits[i] {
			t.Fatalf("bit %d differs", i)
		}
	}
}

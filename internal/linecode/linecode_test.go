package linecode

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"braidio/internal/rng"
)

func randomBits(n int, seed uint64) []byte {
	r := rng.New(seed)
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = r.Bit()
	}
	return bits
}

func TestRoundTripAllCodes(t *testing.T) {
	bits := randomBits(1000, 1)
	for _, c := range []Code{NRZ, Manchester, FM0} {
		symbols := Encode(c, bits)
		if len(symbols) != len(bits)*c.SymbolsPerBit() {
			t.Errorf("%v: %d symbols for %d bits", c, len(symbols), len(bits))
		}
		got, err := Decode(c, symbols)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !bytes.Equal(got, bits) {
			t.Errorf("%v: round trip corrupted the stream", c)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range []Code{Manchester, FM0} {
		c := c
		f := func(raw []byte) bool {
			bits := make([]byte, len(raw))
			for i, b := range raw {
				bits[i] = b & 1
			}
			got, err := Decode(c, Encode(c, bits))
			return err == nil && bytes.Equal(got, bits)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

// TestRunLengthBounded is the property the envelope link needs: no
// matter the data — including all-zeros and all-ones — the coded stream
// never holds a level for more than two symbols.
func TestRunLengthBounded(t *testing.T) {
	pathological := [][]byte{
		bytes.Repeat([]byte{1}, 500),
		bytes.Repeat([]byte{0}, 500),
		randomBits(500, 2),
	}
	for _, bits := range pathological {
		for _, c := range []Code{Manchester, FM0} {
			if run := MaxRunLength(Encode(c, bits)); run > 2 {
				t.Errorf("%v: run length %d > 2", c, run)
			}
		}
		// NRZ on constant data runs forever — the failure mode.
		if bits[0] == bits[len(bits)-1] && bits[0] == 1 {
			if run := MaxRunLength(Encode(NRZ, bits)); run != 500 {
				t.Errorf("NRZ run length = %d, want 500", run)
			}
		}
	}
}

func TestDCBalance(t *testing.T) {
	ones := bytes.Repeat([]byte{1}, 1000)
	// Manchester is exactly balanced for any input.
	if got := DCBalance(Encode(Manchester, ones)); got != 0 {
		t.Errorf("Manchester balance on all-ones = %v, want 0", got)
	}
	// FM0 is balanced to within one symbol on random data.
	if got := DCBalance(Encode(FM0, randomBits(10000, 3))); math.Abs(got) > 0.02 {
		t.Errorf("FM0 balance = %v, want ≈0", got)
	}
	// NRZ on all-ones is maximally unbalanced.
	if got := DCBalance(Encode(NRZ, ones)); got != 0.5 {
		t.Errorf("NRZ balance on all-ones = %v, want 0.5", got)
	}
	if DCBalance(nil) != 0 {
		t.Error("empty balance not 0")
	}
}

func TestManchesterViolationDetected(t *testing.T) {
	symbols := Encode(Manchester, []byte{1, 0, 1})
	symbols[2] = symbols[3] // make an invalid 00 or 11 pair
	_, err := Decode(Manchester, symbols)
	if !errors.Is(err, ErrCodingViolation) {
		t.Errorf("corrupted Manchester decoded: %v", err)
	}
	if _, err := Decode(Manchester, []byte{1}); !errors.Is(err, ErrCodingViolation) {
		t.Errorf("odd-length Manchester decoded: %v", err)
	}
}

func TestFM0ViolationDetected(t *testing.T) {
	symbols := Encode(FM0, []byte{1, 1, 0, 1})
	// Break the boundary-inversion rule: force symbol 2 equal to the
	// previous level.
	symbols[2] = symbols[1]
	_, err := Decode(FM0, symbols)
	if !errors.Is(err, ErrCodingViolation) {
		t.Errorf("corrupted FM0 decoded: %v", err)
	}
}

// TestFM0Structure pins the FM0 invariants: inversion at every bit
// boundary, mid-bit inversion exactly for zeros.
func TestFM0Structure(t *testing.T) {
	bits := randomBits(300, 4)
	symbols := Encode(FM0, bits)
	level := byte(1)
	for i, b := range bits {
		first, second := symbols[2*i], symbols[2*i+1]
		if first == level {
			t.Fatalf("bit %d: no boundary inversion", i)
		}
		if b == 1 && second != first {
			t.Fatalf("bit %d: data-1 has a mid-bit inversion", i)
		}
		if b == 0 && second == first {
			t.Fatalf("bit %d: data-0 lacks its mid-bit inversion", i)
		}
		level = second
	}
}

func TestCodeMeta(t *testing.T) {
	if NRZ.SymbolsPerBit() != 1 || Manchester.SymbolsPerBit() != 2 || FM0.SymbolsPerBit() != 2 {
		t.Error("symbol expansion wrong")
	}
	for _, c := range []Code{NRZ, Manchester, FM0, Code(9)} {
		if c.String() == "" {
			t.Error("empty code name")
		}
	}
}

func TestUnknownCodePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"encode": func() { Encode(Code(9), []byte{1}) },
		"decode": func() { Decode(Code(9), []byte{1}) },
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

func TestMaxRunLengthEdge(t *testing.T) {
	if MaxRunLength(nil) != 0 {
		t.Error("empty run length not 0")
	}
	if MaxRunLength([]byte{1}) != 1 {
		t.Error("single symbol run length not 1")
	}
}

// TestAppendVariantsMatch: EncodeAppend/DecodeAppend agree with
// Encode/Decode and honor append semantics (prefix preserved, capacity
// reused).
func TestAppendVariantsMatch(t *testing.T) {
	bits := []byte{1, 0, 0, 1, 1, 1, 0, 1, 0, 0}
	for _, c := range []Code{NRZ, Manchester, FM0} {
		want := Encode(c, bits)
		buf := make([]byte, 0, 2*len(bits)+3)
		buf = append(buf, 9, 9, 9) // pre-existing prefix must survive
		got := EncodeAppend(buf, c, bits)
		if !bytes.Equal(got[:3], []byte{9, 9, 9}) {
			t.Fatalf("%v: EncodeAppend clobbered the prefix", c)
		}
		if !bytes.Equal(got[3:], want) {
			t.Fatalf("%v: EncodeAppend %v, want %v", c, got[3:], want)
		}
		if &got[0] != &buf[0] {
			t.Errorf("%v: EncodeAppend reallocated despite capacity", c)
		}

		wantBits, wantErr := Decode(c, want)
		decBuf := make([]byte, 0, len(bits))
		gotBits, gotErr := DecodeAppend(decBuf, c, want)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%v: error mismatch %v vs %v", c, gotErr, wantErr)
		}
		if !bytes.Equal(gotBits, wantBits) {
			t.Fatalf("%v: DecodeAppend %v, want %v", c, gotBits, wantBits)
		}
		if len(gotBits) > 0 && &gotBits[0] != &decBuf[:1][0] {
			t.Errorf("%v: DecodeAppend reallocated despite capacity", c)
		}
	}
}

// TestDecodeAppendViolationKeepsPrefix: on a coding violation the
// returned slice still starts with the caller's prefix plus the bits
// decoded before the violation, mirroring Decode's partial-result
// contract.
func TestDecodeAppendViolationKeepsPrefix(t *testing.T) {
	syms := Encode(Manchester, []byte{1, 1, 0})
	syms[4], syms[5] = 1, 1 // violation at bit 2
	prefix := []byte{7}
	got, err := DecodeAppend(append([]byte{}, prefix...), Manchester, syms)
	if !errors.Is(err, ErrCodingViolation) {
		t.Fatalf("error = %v, want coding violation", err)
	}
	if !bytes.Equal(got, []byte{7, 1, 1}) {
		t.Fatalf("partial decode %v, want prefix + 2 good bits", got)
	}
	// Odd symbol counts are rejected before any decoding.
	if got, err := DecodeAppend(prefix, FM0, []byte{1}); !errors.Is(err, ErrCodingViolation) || !bytes.Equal(got, prefix) {
		t.Fatalf("odd count: got %v err %v", got, err)
	}
}

// TestNRZDecodeMasksLevels: NRZ decode reduces arbitrary symbol bytes to
// their level bit, matching the historical contract.
func TestNRZDecodeMasksLevels(t *testing.T) {
	got, err := Decode(NRZ, []byte{0, 1, 2, 255})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 1, 0, 1}) {
		t.Fatalf("NRZ decode %v, want masked levels", got)
	}
}

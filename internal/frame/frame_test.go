package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"braidio/internal/units"
)

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 check vector = %#04x, want 0x29B1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Errorf("CRC16(empty) = %#04x, want 0xFFFF (init value)", got)
	}
}

func TestCRC16DetectsSingleBitFlips(t *testing.T) {
	data := []byte("braidio carrier offload")
	orig := CRC16(data)
	for i := range data {
		for b := 0; b < 8; b++ {
			data[i] ^= 1 << b
			if CRC16(data) == orig {
				t.Fatalf("single-bit flip at %d.%d not detected", i, b)
			}
			data[i] ^= 1 << b
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := Header{Type: TypeData, Mode: 2, Seq: 0xBEEF, Battery: 200, Ack: 0x1234}
	payload := []byte("hello from the tag")
	buf, err := Encode(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != WireSize(len(payload)) {
		t.Errorf("wire size %d, want %d", len(buf), WireSize(len(payload)))
	}
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Header.Type != h.Type || f.Header.Mode != h.Mode || f.Header.Seq != h.Seq ||
		f.Header.Battery != h.Battery || f.Header.Ack != h.Ack {
		t.Errorf("header mismatch: %+v vs %+v", f.Header, h)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Errorf("payload mismatch")
	}
	if f.Header.Length != uint8(len(payload)) {
		t.Errorf("length = %d, want %d", f.Header.Length, len(payload))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(typ, mode, battery uint8, seq, ack uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		h := Header{Type: Type(typ % 5), Mode: mode % 3, Seq: seq, Battery: battery, Ack: ack}
		buf, err := Encode(h, payload)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.Header.Seq == seq && got.Header.Ack == ack &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf, err := Encode(Header{Type: TypeData, Seq: 7}, []byte("payload bytes"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every single byte position past the preamble and confirm
	// the decoder never silently accepts.
	for i := PreambleLen; i < len(buf); i++ {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		f, err := Decode(bad)
		if err == nil {
			// A corrupted length field can still CRC-fail; a corrupted
			// payload must too. Accept only identical decode, which
			// can't happen after a flip.
			t.Fatalf("corruption at byte %d accepted: %+v", i, f)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); !errors.Is(err, ErrTooShort) {
		t.Errorf("short buffer: %v", err)
	}
	buf, _ := Encode(Header{}, nil)
	noSync := append([]byte(nil), buf...)
	noSync[PreambleLen] = 0x00
	if _, err := Decode(noSync); !errors.Is(err, ErrNoSync) {
		t.Errorf("broken sync: %v", err)
	}
	badLen := append([]byte(nil), buf...)
	badLen[PreambleLen+SyncLen+4] = 200 // length field beyond buffer
	if _, err := Decode(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}
	badCRC := append([]byte(nil), buf...)
	badCRC[len(badCRC)-1] ^= 0xFF
	if _, err := Decode(badCRC); !errors.Is(err, ErrBadCRC) {
		t.Errorf("bad CRC: %v", err)
	}
}

func TestEncodeOversized(t *testing.T) {
	if _, err := Encode(Header{}, make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversized) {
		t.Errorf("oversized payload: %v", err)
	}
}

// TestDecodeOversized: a frame whose length field exceeds MaxPayload
// could never have been encoded, so Decode refuses it even when its CRC
// checks out.
func TestDecodeOversized(t *testing.T) {
	buf, err := Encode(Header{Type: TypeData}, make([]byte, MaxPayload))
	if err != nil {
		t.Fatal(err)
	}
	// Header and payload, one byte longer, with the length field to match.
	msg := append(append([]byte(nil), buf[PreambleLen+SyncLen:len(buf)-CRCLen]...), 0)
	msg[4] = MaxPayload + 1
	long := append(append([]byte(nil), buf[:PreambleLen+SyncLen]...), msg...)
	long = binary.BigEndian.AppendUint16(long, CRC16(msg))
	if _, err := Decode(long); !errors.Is(err, ErrOversized) {
		t.Errorf("length %d frame: err = %v, want ErrOversized", MaxPayload+1, err)
	}
}

func TestOverheadIs16Bytes(t *testing.T) {
	// The energy model's 93.75% framing efficiency assumes 16 bytes of
	// overhead on a 240-byte payload; pin it.
	if Overhead != 16 {
		t.Fatalf("Overhead = %d, want 16", Overhead)
	}
	if got := Efficiency(DefaultPayload); math.Abs(got-0.9375) > 1e-12 {
		t.Errorf("default efficiency = %v, want 0.9375", got)
	}
}

func TestEfficiencyMonotone(t *testing.T) {
	prev := -1.0
	for l := 0; l <= MaxPayload; l += 16 {
		e := Efficiency(l)
		if e <= prev {
			t.Fatalf("efficiency not increasing at payload %d", l)
		}
		prev = e
	}
}

func TestFrameErrorRate(t *testing.T) {
	if got := FrameErrorRate(0, 100); got != 0 {
		t.Errorf("FER at BER 0 = %v", got)
	}
	if got := FrameErrorRate(1, 100); got != 1 {
		t.Errorf("FER at BER 1 = %v", got)
	}
	// Small-BER approximation: FER ≈ bits × BER.
	ber := 1e-6
	bits := float64(WireBits(100))
	if got := FrameErrorRate(ber, 100); math.Abs(got-bits*ber)/(bits*ber) > 0.01 {
		t.Errorf("FER = %v, want ≈ %v", got, bits*ber)
	}
}

func TestFrameErrorRateMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x := float64(a) / 65536 * 0.01
		y := float64(b) / 65536 * 0.01
		if x > y {
			x, y = y, x
		}
		return FrameErrorRate(x, 64) <= FrameErrorRate(y, 64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoodput(t *testing.T) {
	// Perfect link at 1 Mbps with default payload: 937.5 kbps goodput.
	g := Goodput(units.Rate1M, 0, DefaultPayload)
	if math.Abs(float64(g)-937500) > 1 {
		t.Errorf("perfect goodput = %v, want 937500", g)
	}
	// Goodput collapses as BER climbs.
	if Goodput(units.Rate1M, 1e-3, DefaultPayload) >= g/2 {
		t.Error("goodput at BER 1e-3 should be heavily degraded")
	}
}

func TestExpectedTransmissions(t *testing.T) {
	if got := ExpectedTransmissions(0, 64); got != 1 {
		t.Errorf("perfect link retransmissions = %v, want 1", got)
	}
	if got := ExpectedTransmissions(1, 64); !math.IsInf(got, 1) {
		t.Errorf("dead link retransmissions = %v, want +Inf", got)
	}
	if got := ExpectedTransmissions(1e-4, 64); got <= 1 || got > 2 {
		t.Errorf("retransmissions at 1e-4 = %v, want slightly above 1", got)
	}
}

func TestFERPanics(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BER %v did not panic", bad)
				}
			}()
			FrameErrorRate(bad, 10)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("negative payload did not panic")
		}
	}()
	Efficiency(-1)
}

func TestTypeString(t *testing.T) {
	for _, typ := range []Type{TypeData, TypeAck, TypeProbe, TypeBattery, TypeModeSwitch, Type(99)} {
		if typ.String() == "" {
			t.Errorf("empty string for type %d", typ)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	payload := make([]byte, DefaultPayload)
	for i := 0; i < b.N; i++ {
		if _, err := Encode(Header{Type: TypeData, Seq: uint16(i)}, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	payload := make([]byte, DefaultPayload)
	buf, _ := Encode(Header{Type: TypeData}, payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

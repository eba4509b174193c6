// Package linecode implements the DC-balanced line codes backscatter
// uplinks use: Manchester (the classic) and FM0 (bi-phase space, the EPC
// Gen2 tag-to-reader encoding). An envelope-detected link that is
// high-pass filtered to reject carrier self-interference (§3.1) cannot
// pass long runs of identical symbols — the baseline wanders into the
// comparator's threshold — so the tag's bit stream must carry its own
// transitions. Both codes guarantee at least one level transition per
// bit at the cost of doubling the symbol rate.
package linecode

import "fmt"

// Code identifies a line code.
type Code int

// Supported codes.
const (
	// NRZ is no coding (one level per bit) — the baseline that fails
	// under baseline wander.
	NRZ Code = iota
	// Manchester encodes 1 as high→low and 0 as low→high.
	Manchester
	// FM0 inverts the level at every bit boundary and adds a mid-bit
	// inversion for 0 (EPC Gen2 convention).
	FM0
)

// String implements fmt.Stringer.
func (c Code) String() string {
	switch c {
	case NRZ:
		return "NRZ"
	case Manchester:
		return "Manchester"
	case FM0:
		return "FM0"
	default:
		return fmt.Sprintf("code(%d)", int(c))
	}
}

// SymbolsPerBit returns the on-air symbol expansion of the code.
func (c Code) SymbolsPerBit() int {
	if c == NRZ {
		return 1
	}
	return 2
}

// Encode expands bits (0/1 bytes) into channel symbols (0/1 levels).
// FM0 encoding is stateful across the stream, starting from level 1.
func Encode(c Code, bits []byte) []byte {
	return EncodeAppend(make([]byte, 0, c.SymbolsPerBit()*len(bits)), c, bits)
}

// EncodeAppend appends the channel symbols for bits to dst and returns
// the extended slice, à la strconv.AppendInt: when dst has capacity for
// the c.SymbolsPerBit()*len(bits) new symbols, no allocation happens.
// Pass dst[:0] to reuse a frame buffer across calls.
func EncodeAppend(dst []byte, c Code, bits []byte) []byte {
	switch c {
	case NRZ:
		for _, b := range bits {
			dst = append(dst, b&1)
		}
		return dst
	case Manchester:
		for _, b := range bits {
			if b&1 == 1 {
				dst = append(dst, 1, 0)
			} else {
				dst = append(dst, 0, 1)
			}
		}
		return dst
	case FM0:
		level := byte(1)
		for _, b := range bits {
			// Invert at the bit boundary.
			level ^= 1
			first := level
			second := level
			if b&1 == 0 {
				// Data-0 adds a mid-bit inversion.
				second = level ^ 1
				level = second
			}
			dst = append(dst, first, second)
		}
		return dst
	default:
		panic(fmt.Sprintf("linecode: unknown code %d", int(c)))
	}
}

// MaxRunLength returns the longest run of identical symbols in a stream
// — the quantity baseline wander cares about. Manchester and FM0 bound
// it at 2 for any input.
func MaxRunLength(symbols []byte) int {
	if len(symbols) == 0 {
		return 0
	}
	best, run := 1, 1
	for i := 1; i < len(symbols); i++ {
		if symbols[i]&1 == symbols[i-1]&1 {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 1
		}
	}
	return best
}

// DCBalance returns the mean symbol level minus 0.5 — zero for a
// perfectly balanced stream.
func DCBalance(symbols []byte) float64 {
	if len(symbols) == 0 {
		return 0
	}
	sum := 0
	for _, s := range symbols {
		sum += int(s & 1)
	}
	return float64(sum)/float64(len(symbols)) - 0.5
}

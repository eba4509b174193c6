package linecode

import (
	"errors"
	"fmt"
)

// The decoder is the reference the tests hold Encode and EncodeAppend
// to: every encoded stream must decode back to its bits.

// ErrCodingViolation reports symbols that are not a valid codeword
// stream (a detected channel error).
var ErrCodingViolation = errors.New("linecode: coding violation")

// Decode recovers bits from channel symbols. For Manchester and FM0 a
// malformed pair returns ErrCodingViolation with the bits decoded so far
// — the violation detection is itself an error-detection mechanism the
// envelope link gets for free.
func Decode(c Code, symbols []byte) ([]byte, error) {
	return DecodeAppend(make([]byte, 0, len(symbols)/c.SymbolsPerBit()+1), c, symbols)
}

// DecodeAppend appends the decoded bits to dst and returns the extended
// slice; a coding violation returns dst plus the bits decoded before the
// violation, alongside ErrCodingViolation, matching Decode. When dst has
// capacity for the decoded bits, no allocation happens (violation error
// construction aside — errors are off the hot path by definition).
func DecodeAppend(dst []byte, c Code, symbols []byte) ([]byte, error) {
	switch c {
	case NRZ:
		for _, s := range symbols {
			dst = append(dst, s&1)
		}
		return dst, nil
	case Manchester:
		if len(symbols)%2 != 0 {
			return dst, fmt.Errorf("%w: odd symbol count", ErrCodingViolation)
		}
		for i := 0; i < len(symbols); i += 2 {
			a, b := symbols[i]&1, symbols[i+1]&1
			switch {
			case a == 1 && b == 0:
				dst = append(dst, 1)
			case a == 0 && b == 1:
				dst = append(dst, 0)
			default:
				return dst, fmt.Errorf("%w: symbols %d%d at bit %d", ErrCodingViolation, a, b, i/2)
			}
		}
		return dst, nil
	case FM0:
		if len(symbols)%2 != 0 {
			return dst, fmt.Errorf("%w: odd symbol count", ErrCodingViolation)
		}
		level := byte(1)
		for i := 0; i < len(symbols); i += 2 {
			a, b := symbols[i]&1, symbols[i+1]&1
			// A valid FM0 bit starts by inverting the previous level.
			if a == level {
				return dst, fmt.Errorf("%w: missing boundary inversion at bit %d", ErrCodingViolation, i/2)
			}
			switch {
			case b == a:
				dst = append(dst, 1)
				level = b
			default:
				dst = append(dst, 0)
				level = b
			}
		}
		return dst, nil
	default:
		panic(fmt.Sprintf("linecode: unknown code %d", int(c)))
	}
}

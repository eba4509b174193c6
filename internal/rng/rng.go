// Package rng provides the deterministic random-number streams used by the
// Braidio simulator.
//
// Every stochastic element of the system — fading realizations, Monte-Carlo
// bit errors, traffic jitter — draws from a Stream created here, so an
// experiment run with the same seed reproduces bit-for-bit. The generator
// is xoshiro256** seeded through SplitMix64, the combination recommended by
// the xoshiro authors; both are implemented from the published reference
// algorithms rather than math/rand so that the sequence is stable across Go
// releases.
package rng

import "math"

// Stream is a deterministic pseudo-random stream. It is not safe for
// concurrent use; create one Stream per goroutine (see Split).
type Stream struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	gauss    float64
	hasGauss bool
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return Mix64(*state)
}

// Mix64 is SplitMix64's output finalizer: a cheap, high-quality 64-bit
// mixer. Besides seeding streams, it spreads hashed keys over the link
// cache's lock stripes and the serve daemon's member shards.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Stream {
	var st Stream
	st.Reseed(seed)
	return &st
}

// Reseed reinitializes the stream in place to the state New(seed) would
// produce, discarding any cached Box-Muller variate. It exists so hot
// paths (rxchain.Runner, Monte-Carlo shards) can reuse one Stream value
// across runs without allocating; New(seed) and Reseed(seed) yield
// byte-identical sequences.
func (r *Stream) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 guarantees that
	// at least one word is nonzero for any seed, but be defensive.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	r.gauss = 0
	r.hasGauss = false
}

// Clone returns an independent copy of the stream: both produce the same
// future sequence and then diverge as they are advanced separately.
func (r *Stream) Clone() *Stream {
	c := *r
	return &c
}

// Split derives a new independent Stream from this one. The child's seed
// consumes one value from the parent, so repeated Splits yield distinct
// streams and the parent sequence shifts deterministically.
func (r *Stream) Split() *Stream { return New(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill
	// here; modulo bias at n values far below 2^64 is negligible for the
	// simulator, but we still reject to keep exact uniformity.
	bound := uint64(n)
	limit := -bound % bound // 2^64 mod bound
	for {
		v := r.Uint64()
		if v >= limit {
			return int(v % bound)
		}
	}
}

// Bool returns a fair coin flip.
func (r *Stream) Bool() bool { return r.Uint64()&1 == 1 }

// Bit returns a fair random bit as a byte (0 or 1), convenient for
// generating payloads in BER Monte-Carlo runs.
func (r *Stream) Bit() byte {
	if r.Bool() {
		return 1
	}
	return 0
}

// Norm returns a standard normal variate (mean 0, standard deviation 1)
// via the Box-Muller transform. The pair's sine and cosine come from one
// math.Sincos, whose argument reduction and polynomials are math.Sin's
// and math.Cos's, so the variates equal separate Sin and Cos calls bit
// for bit (TestNormMatchesSinCos pins this).
func (r *Stream) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.gauss = mag * sin
	r.hasGauss = true
	return mag * cos
}

// Rayleigh returns a Rayleigh-distributed variate with scale sigma: the
// envelope of a zero-mean complex Gaussian whose real and imaginary parts
// each have standard deviation sigma. Used for non-line-of-sight fading.
func (r *Stream) Rayleigh(sigma float64) float64 {
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// Rician returns a Rician-distributed envelope with line-of-sight
// amplitude nu and diffuse scale sigma. With nu = 0 it reduces to a
// Rayleigh variate.
func (r *Stream) Rician(nu, sigma float64) float64 {
	x := nu + sigma*r.Norm()
	y := sigma * r.Norm()
	return math.Hypot(x, y)
}

// Exp returns an exponentially distributed variate with the given mean,
// used for inter-arrival jitter in bursty traffic models.
func (r *Stream) Exp(mean float64) float64 {
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// jumpPoly is xoshiro256**'s published 2^128-step jump polynomial.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the stream by 2^128 steps in O(1) work, yielding a
// stream whose future output is disjoint from the original's next 2^128
// values — the canonical way to carve one seed into independent parallel
// streams with a hard non-overlap guarantee (Split gives statistical
// independence; Jump gives a proof).
func (r *Stream) Jump() {
	var s [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
	r.hasGauss = false
}

// Substreams carves one seed into n parallel streams by chaining Jump:
// stream i starts 2^128 × i steps into New(seed)'s sequence, so the
// streams are pairwise non-overlapping for at least 2^128 draws each.
// The layout depends only on (seed, n) — never on how many goroutines
// later consume the streams — which is what makes sharded Monte-Carlo
// sweeps bit-identical at any worker count.
func Substreams(seed uint64, n int) []*Stream {
	if n < 0 {
		panic("rng: negative substream count")
	}
	out := make([]*Stream, n)
	cur := New(seed)
	for i := range out {
		out[i] = cur.Clone()
		cur.Jump()
	}
	return out
}

// Package xrand provides the deterministic pseudo-random number generator
// used by the synthetic workload generator. A fixed, self-contained generator
// (splitmix64 seeding a xoshiro256**) keeps every trace reproducible across
// Go releases, unlike math/rand whose stream is not stable across versions
// for all helpers.
package xrand

import "math"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; use New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed state and returns the next scrambled value.
// It is the standard seeding recipe for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// Avoid the theoretical all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
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

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := r.Uint64()
		lo := v * n // low 64 bits of the 128-bit product
		if lo >= thresh {
			hi, _ := mul64(v, n)
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Geometric returns a geometric variate with success probability p: the
// number of failures before the first success, so the mean is (1-p)/p.
// It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Zipf returns a value in [0, n) drawn from a Zipf-like distribution with
// exponent s (s > 0 gives head-heavy selection, favouring small indices).
// It uses inverse-CDF sampling over a precomputed table; build one with
// NewZipf for repeated draws.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF table for n items with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// N returns the table size.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw samples an index in [0, n).
func (z *Zipf) Draw(r *Rand) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

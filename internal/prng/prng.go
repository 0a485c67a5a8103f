// Package prng provides the deterministic pseudorandom machinery shared by
// backscatter tags and the reader.
//
// Buzz's protocols depend on the reader being able to regenerate, bit for
// bit, the random decisions each tag makes: which time slots a tag
// participates in (the sparse matrix D of §6), which binary pattern a
// temporary id maps to (the columns of A in §5), and which bucket an id
// hashes into (stage B of identification). All of that determinism lives
// here so that tag code and reader code literally call the same functions.
//
// The package offers two styles:
//
//   - Stateless, addressable randomness: Mix2, Mix3, BiasedBitAt and
//     friends map a (seed, index) pair straight to a value. The reader can
//     evaluate any cell of D or A without generating the prefix before it.
//   - Stateful streams: Source is a SplitMix64-based sequential generator
//     used where ordering is natural (noise synthesis, scenario setup).
//
// None of this is cryptographic; the EPC Gen-2 standard itself only asks
// for a cheap pseudorandom generator on the tag (paper §5, footnote 1).
package prng

import "math"

// splitMix64 advances the SplitMix64 state and returns the next value.
// SplitMix64 is a tiny, well-distributed 64-bit mixer (Steele et al.,
// "Fast splittable pseudorandom number generators", OOPSLA 2014); it is
// the standard seeding generator for the xoshiro family.
func splitMix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix64 hashes a single 64-bit value through the SplitMix64 finalizer.
// It is the building block for all addressable randomness in this package.
func Mix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix2 hashes a pair of 64-bit values into one. It is used to address
// randomness by (seed, slot) or (id, salt) pairs.
func Mix2(a, b uint64) uint64 {
	return Mix64(Mix64(a) ^ (b * 0x9e3779b97f4a7c15) ^ 0x2545f4914f6cdd1d)
}

// Mix3 hashes a triple of 64-bit values into one.
func Mix3(a, b, c uint64) uint64 {
	return Mix3From(Mix2(a, b), c)
}

// Mix3From finishes Mix3(a, b, c) from ab = Mix2(a, b): a loop over c
// at a fixed (a, b) hashes the pair once, with bit-identical results.
func Mix3From(ab, c uint64) uint64 {
	return Mix64(ab ^ (c*0xd6e8feb86659fd93 + 0x8febc6a3fca77bb9))
}

// Uniform01 maps a 64-bit hash to a float64 uniform in [0, 1).
// The top 53 bits are used so every representable value is equally likely.
func Uniform01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// BiasedBitAt returns a bit that is 1 with probability p for the node with
// the given seed at the given index. It backs the geometric schedule of the
// K estimator (p = 2^-j) and the sparse participation matrix D, whose
// density the reader tunes to the estimated K.
func BiasedBitAt(seed, index uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Uniform01(Mix2(seed, index)) < p
}

// mul64 returns the 128-bit product of a and b as (hi, lo) without
// pulling in math/bits at every call site. (math/bits is stdlib; this
// wrapper exists to keep the reduction logic in one place.)
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	carry := t >> 32
	t = aHi*bLo + carry
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// UintN maps a hash to a uniform integer in [0, n).
func UintN(h uint64, n int) int {
	if n <= 0 {
		return 0
	}
	hi, _ := mul64(h, uint64(n))
	return int(hi)
}

// Source is a sequential SplitMix64 generator. The zero value is a valid
// generator seeded with 0; use NewSource for an explicit seed.
type Source struct {
	state uint64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Reseed resets the source in place to the given seed — the
// allocation-free form hot loops use for short-lived derived streams.
func (s *Source) Reseed(seed uint64) {
	s.state = seed
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Source) Uint64() uint64 {
	var out uint64
	s.state, out = splitMix64(s.state)
	return out
}

// Float64 returns the next float64 uniform in [0, 1).
func (s *Source) Float64() float64 {
	return Uniform01(s.Uint64())
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("prng: IntN called with non-positive n")
	}
	return UintN(s.Uint64(), n)
}

// Bool returns the next fair random bit.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Ziggurat tables for NormFloat64 (Marsaglia & Tsang 2000, 128 layers):
// zigK are the 31-bit acceptance thresholds, zigW the layer scale
// factors, zigF the density at each layer boundary.
var (
	zigK [128]uint32
	zigW [128]float64
	zigF [128]float64
)

func init() {
	const m = 2147483648.0 // 2^31
	dn := 3.442619855899
	tn := dn
	const vn = 9.91256303526217e-3
	q := vn / math.Exp(-0.5*dn*dn)
	zigK[0] = uint32(dn / q * m)
	zigK[1] = 0
	zigW[0] = q / m
	zigW[127] = dn / m
	zigF[0] = 1
	zigF[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint32(dn / tn * m)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / m
	}
}

// NormFloat64 returns a standard normal variate by the ziggurat method
// (Marsaglia & Tsang 2000): ~98.8% of draws cost one 64-bit generate,
// one table compare and one multiply; the rest fall through to the
// wedge/tail corrections. Noise synthesis is the simulator's single
// largest consumer of randomness, and both the Box–Muller trig and the
// polar method's log/sqrt were top-line profile entries. The output
// distribution is exactly N(0,1); only the mapping from the uniform
// stream changed.
func (s *Source) NormFloat64() float64 {
	const zigR = 3.442619855899
	for {
		u := s.Uint64()
		hz := int32(uint32(u))
		iz := hz & 127
		a := uint32(hz)
		if hz < 0 {
			a = -a
		}
		if a < zigK[iz] {
			return float64(hz) * zigW[iz]
		}
		if iz == 0 {
			// Base strip: sample the tail beyond zigR.
			for {
				x := -math.Log(nonZero(s.Float64())) / zigR
				y := -math.Log(nonZero(s.Float64()))
				if y+y >= x*x {
					if hz > 0 {
						return zigR + x
					}
					return -(zigR + x)
				}
			}
		}
		// Wedge: accept against the true density.
		x := float64(hz) * zigW[iz]
		if zigF[iz]+s.Float64()*(zigF[iz-1]-zigF[iz]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// nonZero nudges a uniform draw away from zero so its log is finite.
func nonZero(f float64) float64 {
	if f == 0 {
		return 0x1p-53
	}
	return f
}

// ComplexNorm returns a circularly-symmetric complex Gaussian variate with
// unit variance per complex dimension (i.e. each of the real and imaginary
// parts has variance 1/2). Scaled by sigma it models AWGN samples.
func (s *Source) ComplexNorm() complex128 {
	const invSqrt2 = 1 / math.Sqrt2
	re := s.NormFloat64() * invSqrt2
	im := s.NormFloat64() * invSqrt2
	return complex(re, im)
}

// Perm returns a pseudorandom permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent child source. Children forked with distinct
// labels from the same parent state produce decorrelated streams, which
// lets an experiment hand stable sub-seeds to its components.
func (s *Source) Fork(label uint64) *Source {
	return NewSource(Mix2(s.Uint64(), label))
}

package ratedapt

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
)

// refSparseAir is the branchy air sparseAir replaced, kept as its
// bitwise oracle: stage the active tags as an index list (activeIdx and
// bitIdx hold at least len(active) entries), then at each position walk
// them, staging the set-bit colliders and summing their tap powers,
// superpose those colliders' taps in ascending order from +0 and add one
// AWGN sample whenever the slot's noise power is positive.
func refSparseAir(m *channel.Model, frames []bits.Vector, active []bool, obs []complex128,
	activeIdx, bitIdx []int, tagPow []float64, noise *prng.Source) {
	na := 0
	for i, on := range active {
		if on {
			activeIdx[na] = i
			na++
		}
	}
	for p := range obs {
		nb := 0
		pow := 0.0
		for _, i := range activeIdx[:na] {
			if frames[i][p] {
				bitIdx[nb] = i
				pow += tagPow[i]
				nb++
			}
		}
		var y complex128
		for _, i := range bitIdx[:nb] {
			y += m.Taps[i]
		}
		np := m.NoisePower + m.AGCNoiseFraction*pow
		if np > 0 {
			y += noise.ComplexNorm() * complex(math.Sqrt(np), 0)
		}
		obs[p] = y
	}
}

// airCase is one slot of air: a channel, the tags' frames and the
// slot's transmitting set.
type airCase struct {
	m      *channel.Model
	frames []bits.Vector
	active []bool
	tagPow []float64
}

// airCaseFlags select the edge cases newAirCase can force.
const (
	airNoiseless  = 1 << iota // NoisePower 0 and AGC 0: no noise, zero sums visible
	airNegZeroTap             // tap components of −0 (and some +0)
	airAllOnes                // every frame bit set
	airSilent                 // no tag transmits
)

// newAirCase draws k tags with frameLen-bit frames, each transmitting
// with probability density, from seed; flags force the edge cases.
func newAirCase(seed uint64, k, frameLen int, density float64, flags int) airCase {
	src := prng.NewSource(seed)
	c := airCase{
		m:      channel.NewFromSNRBand(k, 0, 30, src),
		frames: make([]bits.Vector, k),
		active: make([]bool, k),
		tagPow: make([]float64, k),
	}
	c.m.AGCNoiseFraction = 0.002
	if flags&airNoiseless != 0 {
		c.m.NoisePower, c.m.AGCNoiseFraction = 0, 0
	}
	negZero := math.Copysign(0, -1)
	for i := range c.frames {
		c.frames[i] = bits.Random(src, frameLen)
		if flags&airAllOnes != 0 {
			for p := range c.frames[i] {
				c.frames[i][p] = true
			}
		}
		c.active[i] = flags&airSilent == 0 && src.Float64() < density
		if flags&airNegZeroTap != 0 {
			h := c.m.Taps[i]
			switch i % 4 {
			case 0:
				c.m.Taps[i] = complex(negZero, imag(h))
			case 1:
				c.m.Taps[i] = complex(real(h), negZero)
			case 2:
				c.m.Taps[i] = complex(negZero, negZero)
			default:
				c.m.Taps[i] = 0
			}
		}
		h := c.m.Taps[i]
		c.tagPow[i] = real(h)*real(h) + imag(h)*imag(h)
	}
	return c
}

// checkAirMatchesReference synthesizes the case's slot with SynthAir
// and with refSparseAir from the same noise seed, and fails unless
// every observation agrees bit for bit and both consumed the same
// number of noise variates.
func checkAirMatchesReference(t *testing.T, c airCase, noiseSeed uint64) {
	t.Helper()
	frameLen := len(c.frames[0])
	got, want := make([]complex128, frameLen), make([]complex128, frameLen)
	gotNoise, wantNoise := prng.NewSource(noiseSeed), prng.NewSource(noiseSeed)
	SynthAir(c.m, c.frames, c.active, got, make([]int, len(c.active)), nil, c.tagPow, gotNoise)
	refSparseAir(c.m, c.frames, c.active, want, make([]int, len(c.active)), make([]int, len(c.active)), c.tagPow, wantNoise)
	for p := range want {
		g, w := got[p], want[p]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("position %d: air %v (%#x, %#x), reference %v (%#x, %#x)", p,
				g, math.Float64bits(real(g)), math.Float64bits(imag(g)),
				w, math.Float64bits(real(w)), math.Float64bits(imag(w)))
		}
	}
	if g, w := gotNoise.Uint64(), wantNoise.Uint64(); g != w {
		t.Fatalf("noise streams diverged after the slot: next draw %#x, reference %#x", g, w)
	}
}

// TestSparseAirMatchesReference pins the branch-free air to the branchy
// one bitwise, over frame lengths that span one and several staging
// blocks and the edge cases where a selected zero could show: no noise
// (the sum's signed zeros are the output), −0 tap components, a silent
// slot and all-ones frames.
func TestSparseAirMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		flags int
	}{
		{"noisy", 0},
		{"noiseless", airNoiseless},
		{"neg-zero-taps", airNegZeroTap},
		{"neg-zero-taps-noiseless", airNegZeroTap | airNoiseless},
		{"silent", airSilent},
		{"silent-noiseless", airSilent | airNoiseless},
		{"all-ones", airAllOnes},
		{"all-ones-noiseless", airAllOnes | airNoiseless},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(0xA1B)
			for _, k := range []int{1, 7, 60} {
				for _, frameLen := range []int{1, 37, 48, 64, 65, 130} {
					for _, density := range []float64{0.1, 0.5, 1} {
						seed++
						checkAirMatchesReference(t, newAirCase(seed, k, frameLen, density, tc.flags), seed^0xF00)
					}
				}
			}
		})
	}
}

// FuzzSparseAir drives the same bitwise oracle over fuzzed shapes,
// densities and edge-case flags.
func FuzzSparseAir(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(48), uint8(21), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(37), uint8(255), uint8(airNoiseless|airNegZeroTap))
	f.Add(uint64(3), uint8(1), uint8(130), uint8(128), uint8(airAllOnes|airNoiseless))
	f.Add(uint64(4), uint8(9), uint8(65), uint8(0), uint8(airSilent))
	f.Fuzz(func(t *testing.T, seed uint64, k, frameLen, density, flags uint8) {
		if k == 0 || frameLen == 0 {
			return
		}
		c := newAirCase(seed, int(k), int(frameLen), float64(density)/255, int(flags))
		checkAirMatchesReference(t, c, seed+1)
	})
}

// TestSynthAirAllocationFree pins the air's steady state: synthesizing
// a slot into caller-owned buffers allocates nothing.
func TestSynthAirAllocationFree(t *testing.T) {
	c := newAirCase(7, 60, 48, 0.1, 0)
	obs, activeIdx := make([]complex128, 48), make([]int, 60)
	noise := prng.NewSource(8)
	if n := testing.AllocsPerRun(100, func() {
		SynthAir(c.m, c.frames, c.active, obs, activeIdx, nil, c.tagPow, noise)
	}); n != 0 {
		t.Fatalf("SynthAir allocated %v times per slot, want 0", n)
	}
}

// BenchmarkSparseAir times one slot of air at the warehouse shape: 60
// joined tags, 48-bit frames, about 5 colliders. It cycles through 64
// independently drawn slots, so no branch predictor can learn one
// slot's bits.
func BenchmarkSparseAir(b *testing.B) {
	var slots [64]airCase
	for s := range slots {
		slots[s] = newAirCase(uint64(11+s), 60, 48, 5.0/60, 0)
	}
	obs, activeIdx, bitIdx := make([]complex128, 48), make([]int, 60), make([]int, 60)
	noise := prng.NewSource(12)
	b.Run("live", func(b *testing.B) {
		for n := range b.N {
			c := &slots[n%len(slots)]
			SynthAir(c.m, c.frames, c.active, obs, activeIdx, nil, c.tagPow, noise)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for n := range b.N {
			c := &slots[n%len(slots)]
			refSparseAir(c.m, c.frames, c.active, obs, activeIdx, bitIdx, c.tagPow, noise)
		}
	})
}

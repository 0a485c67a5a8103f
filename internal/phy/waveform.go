package phy

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// TagSignal is one tag's contribution to an oversampled capture: its chip
// stream, channel tap and timing imperfections.
type TagSignal struct {
	// Chips is the impedance state sequence (true = reflecting).
	Chips []bool
	// H is the tag's single-tap channel coefficient.
	H complex128
	// Timing holds the tag's offset and drift relative to reader time.
	Timing Timing
}

// Capture describes an oversampled reader-side recording session, in the
// style of the USRP traces the paper collects (4 MHz captures of 80 kbps
// signals ⇒ 50 samples per bit).
type Capture struct {
	// SamplesPerChip is the oversampling factor relative to the chip
	// rate (for plain OOK a chip equals a bit).
	SamplesPerChip int
	// Carrier is the constant leakage of the reader's own continuous
	// wave into its receiver. The Fig. 2 magnitude traces ride on this
	// pedestal: silence reads ~|Carrier|, not zero.
	Carrier complex128
	// NoisePower is the per-sample complex noise variance.
	NoisePower float64
}

// DefaultCapture mirrors the paper's instrumentation: strong carrier
// pedestal and mild per-sample noise.
func DefaultCapture() Capture {
	return Capture{SamplesPerChip: 10, Carrier: complex(0.75, 0), NoisePower: 1e-5}
}

// Synthesize renders the collision of the given tags over nChips chip
// intervals into complex samples. Sample s corresponds to normalized chip
// time (s+0.5)/SamplesPerChip; each tag's reflect state at that instant is
// read through its own timing model, which is how fractional offsets and
// clock drift smear chip boundaries across samples.
func (c Capture) Synthesize(tags []TagSignal, nChips int, noise *prng.Source) []complex128 {
	return c.SynthesizeInto(make([]complex128, nChips*c.SamplesPerChip), tags, nChips, noise)
}

// SynthesizeInto is Synthesize writing into dst, which must hold exactly
// nChips·SamplesPerChip samples; it returns dst. The sampled-air decode
// loop reuses one staging buffer across slots.
func (c Capture) SynthesizeInto(dst []complex128, tags []TagSignal, nChips int, noise *prng.Source) []complex128 {
	if c.SamplesPerChip <= 0 {
		panic(fmt.Sprintf("phy: Capture with SamplesPerChip=%d", c.SamplesPerChip))
	}
	n := nChips * c.SamplesPerChip
	if len(dst) != n {
		panic(fmt.Sprintf("phy: SynthesizeInto dst length %d != %d samples", len(dst), n))
	}
	out := dst
	sigma := math.Sqrt(c.NoisePower)
	for s := 0; s < n; s++ {
		t := (float64(s) + 0.5) / float64(c.SamplesPerChip)
		y := c.Carrier
		for _, tag := range tags {
			if tag.Timing.ChipAt(tag.Chips, t) {
				y += tag.H
			}
		}
		if sigma > 0 {
			y += noise.ComplexNorm() * complex(sigma, 0)
		}
		out[s] = y
	}
	return out
}

// Magnitudes returns the per-sample magnitudes of a capture, the quantity
// Fig. 2 and Fig. 8 plot against time.
func Magnitudes(samples []complex128) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Hypot(real(s), imag(s))
	}
	return out
}

// ChipObservations folds an oversampled, carrier-removed capture into one
// complex observation per chip by integrate-and-dump.
func (c Capture) ChipObservations(samples []complex128) []complex128 {
	return IntegrateAndDump(samples, c.SamplesPerChip)
}

// DistinctLevels estimates how many distinct magnitude levels a capture
// exhibits, by clustering sorted magnitudes with the given tolerance.
// A single tag yields 2 levels, a two-tag collision 4 (Fig. 2), and in
// general k tags yield up to 2^k.
func DistinctLevels(magnitudes []float64, tol float64) int {
	if len(magnitudes) == 0 {
		return 0
	}
	sorted := make([]float64, len(magnitudes))
	copy(sorted, magnitudes)
	insertionSort(sorted)
	levels := 1
	last := sorted[0]
	for _, m := range sorted[1:] {
		if m-last > tol {
			levels++
		}
		last = m
	}
	return levels
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// ConstellationPoints returns the ideal constellation of a k-tag
// collision with the given taps and carrier offset: the 2^k superposition
// points h·b over all activity patterns b ∈ {0,1}^k. Fig. 3 plots these
// (k=1: 2 points, k=2: 4 points).
func ConstellationPoints(taps []complex128, carrier complex128) []complex128 {
	k := len(taps)
	n := 1 << uint(k)
	out := make([]complex128, n)
	for pattern := 0; pattern < n; pattern++ {
		y := carrier
		for i := 0; i < k; i++ {
			if pattern>>uint(i)&1 == 1 {
				y += taps[i]
			}
		}
		out[pattern] = y
	}
	return out
}

// MinConstellationDistance returns the smallest pairwise distance between
// constellation points — the quantity that decides whether a collision of
// k tags is decodable at a given noise level (§3.1's "if the spacing of
// the constellation were less ideal...").
func MinConstellationDistance(points []complex128) float64 {
	min := math.Inf(1)
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			d := points[i] - points[j]
			dist := math.Hypot(real(d), imag(d))
			if dist < min {
				min = dist
			}
		}
	}
	return min
}

// Package channel models the wireless channel between backscatter tags
// and the reader.
//
// The paper (§2) establishes that backscatter links are narrowband
// (≤ 640 kHz), so multipath is negligible and each tag's channel is a
// single complex tap h_i. A collision slot observed at the reader is
//
//	y = Σ_{i active} h_i · b_i + n,   n ~ CN(0, N₀)
//
// which is exactly what Model.Symbol computes. Every figure draws its
// channels from an SNR band (§9, Fig. 12: "channel quality (SNR range in
// dB)"): per-tag SNRs uniform inside a stated dB band, from which tap
// magnitudes are back-computed against the noise floor, with uniform
// phase. The Fig. 10/11 bench sweep draws from the 14–30 dB band of
// sim.DefaultProfile, one draw per location; Fig. 12's
// challenging-conditions bands set its x-axis directly.
package channel

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/prng"
)

// Model is the channel state for one experiment run: one complex tap per
// tag plus the reader's noise floor.
type Model struct {
	// Taps holds the per-tag complex channel coefficients h_i.
	Taps []complex128
	// NoisePower is the per-sample complex noise variance N₀ at the
	// reader. AWGN samples are drawn as ComplexNorm()·√N₀.
	NoisePower float64
	// AGCNoiseFraction models the receiver's finite dynamic range: the
	// front end (AGC + ADC) contributes quantization noise a fixed
	// number of dB below the composite signal it must accommodate, so
	// the effective noise floor of a slot is
	//
	//	N₀ + AGCNoiseFraction · Σ_{i active} |h_i|²
	//
	// This is the mechanism that makes concurrent-access schemes pay
	// for near-far disparity: when a strong tag is on the air, the
	// floor under every weak tag rises. CDMA keeps all K tags on the
	// air at once and suffers most; TDMA hears one tag at a time; Buzz
	// collides small random subsets, so a weak tag still gets slots
	// free of strong interferers (§6d's diversity argument). Zero
	// disables the effect.
	AGCNoiseFraction float64
}

// SlotNoisePower returns the effective noise variance of a slot in which
// the given tags are transmitting.
func (m *Model) SlotNoisePower(active []bool) float64 {
	n := m.NoisePower
	if m.AGCNoiseFraction > 0 {
		for i, on := range active {
			if on {
				n += m.AGCNoiseFraction * snrPower(m.Taps[i])
			}
		}
	}
	return n
}

// K returns the number of tags the model covers.
func (m *Model) K() int { return len(m.Taps) }

// Symbol synthesizes one received collision symbol: the superposition of
// the taps of all active tags plus one AWGN sample drawn from noise.
// active[i] reports whether tag i reflects a "1" in this slot.
func (m *Model) Symbol(active []bool, noise *prng.Source) complex128 {
	if len(active) != len(m.Taps) {
		panic(fmt.Sprintf("channel: Symbol got %d activity flags for %d taps", len(active), len(m.Taps)))
	}
	var y complex128
	for i, on := range active {
		if on {
			y += m.Taps[i]
		}
	}
	if np := m.SlotNoisePower(active); np > 0 {
		y += noise.ComplexNorm() * complex(math.Sqrt(np), 0)
	}
	return y
}

// Noiseless returns the deterministic part of a collision symbol. The
// belief-propagation decoder's error function compares observations
// against exactly these superpositions.
func (m *Model) Noiseless(active []bool) complex128 {
	var y complex128
	for i, on := range active {
		if on {
			y += m.Taps[i]
		}
	}
	return y
}

// SNRdB returns tag i's per-symbol SNR in dB: |h_i|²/N₀.
func (m *Model) SNRdB(i int) float64 {
	return dsp.SNRdB(snrPower(m.Taps[i]), m.NoisePower)
}

func snrPower(h complex128) float64 {
	return real(h)*real(h) + imag(h)*imag(h)
}

// NewFromSNRBand draws a Model with per-tag SNRs uniform in
// [loDB, hiDB], against a unit noise floor. Fig. 12's channel-quality
// bands map one-to-one onto this constructor.
func NewFromSNRBand(k int, loDB, hiDB float64, src *prng.Source) *Model {
	if hiDB < loDB {
		loDB, hiDB = hiDB, loDB
	}
	m := &Model{Taps: make([]complex128, k), NoisePower: 1}
	for i := 0; i < k; i++ {
		snrDB := loDB + src.Float64()*(hiDB-loDB)
		m.Taps[i] = tapForSNR(snrDB, m.NoisePower, src)
	}
	return m
}

// NewUniform builds a Model where every tag has the same SNR and a
// random phase — useful in tests and in the toy examples of §3.
func NewUniform(k int, snrDB float64, src *prng.Source) *Model {
	m := &Model{Taps: make([]complex128, k), NoisePower: 1}
	for i := 0; i < k; i++ {
		m.Taps[i] = tapForSNR(snrDB, m.NoisePower, src)
	}
	return m
}

// NewExact builds a Model directly from taps and a noise power; tests and
// trace generators use it for full control.
func NewExact(taps []complex128, noisePower float64) *Model {
	cp := make([]complex128, len(taps))
	copy(cp, taps)
	return &Model{Taps: cp, NoisePower: noisePower}
}

// tapForSNR synthesizes a tap whose power is snrDB above the noise floor,
// with uniform random phase.
func tapForSNR(snrDB, noisePower float64, src *prng.Source) complex128 {
	amp := math.Sqrt(dsp.DBToLinear(snrDB) * noisePower)
	phase := 2 * math.Pi * src.Float64()
	return cmplx.Rect(amp, phase)
}

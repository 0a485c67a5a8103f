// Package channel models the wireless channel between backscatter tags
// and the reader.
//
// The paper (§2) establishes that backscatter links are narrowband
// (≤ 640 kHz), so multipath is negligible and each tag's channel is a
// single complex tap h_i. A collision slot observed at the reader is
//
//	y = Σ_{i active} h_i · b_i + n,   n ~ CN(0, N₀)
//
// which is exactly what Model.Symbol computes. Channels are synthesized
// two ways, mirroring the two ways the paper's testbed varied them:
//
//   - Placement-driven (§7: tags at 0.5–6 ft on a bench): log-distance
//     path loss with lognormal shadowing and uniform phase. Moving tags
//     farther away degrades every tap together and spreads the near-far
//     disparity, reproducing the Fig. 10/11 location sweep.
//   - SNR-band-driven (§9, Fig. 12: "channel quality (SNR range in dB)"):
//     per-tag SNRs drawn uniformly inside a stated dB band, from which tap
//     magnitudes are back-computed against the noise floor. This gives
//     direct control of the x-axis of the challenging-conditions figure.
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

// MinMaxSNRdB returns the weakest and strongest per-tag SNR in dB, the
// statistic the paper uses to label channel-quality bands in Fig. 12.
func (m *Model) MinMaxSNRdB() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range m.Taps {
		s := m.SNRdB(i)
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// NearFarRatiodB returns the power ratio between the strongest and
// weakest tap in dB — the near-far disparity CDMA suffers from (§6d).
func (m *Model) NearFarRatiodB() float64 {
	lo, hi := m.MinMaxSNRdB()
	return hi - lo
}

func snrPower(h complex128) float64 {
	return real(h)*real(h) + imag(h)*imag(h)
}

// Placement describes a bench-style deployment in the spirit of the
// paper's testbed (§7): tags on a cart at sub-2 ft to 6 ft from the
// reader antenna.
type Placement struct {
	// MinDistanceFt and MaxDistanceFt bound the uniform tag placement,
	// in feet (the paper's range is [0.5, 6]).
	MinDistanceFt float64
	MaxDistanceFt float64
	// PathLossExponent is the log-distance exponent γ; ~2 in free space,
	// higher indoors. Backscatter links attenuate with d^γ in each
	// direction, so the round-trip tap magnitude goes as d^(-γ).
	PathLossExponent float64
	// ReferenceSNRdB is the per-tag SNR a tag at MinDistanceFt enjoys.
	// Everything farther is scaled down by path loss.
	ReferenceSNRdB float64
	// ShadowingSigmadB is the standard deviation of lognormal shadowing
	// applied per tag, in dB. Zero disables shadowing.
	ShadowingSigmadB float64
}

// DefaultPlacement mirrors the paper's bench: distances 0.5–6 ft,
// indoor-ish path loss, and a strong reference SNR so that nearby tags
// decode in one collision while far tags need several.
func DefaultPlacement() Placement {
	return Placement{
		MinDistanceFt:    0.5,
		MaxDistanceFt:    6,
		PathLossExponent: 2.7,
		ReferenceSNRdB:   30,
		ShadowingSigmadB: 3,
	}
}

// NewFromPlacement draws a Model for k tags from the placement using src.
// The noise floor is normalized to 1 so tap powers equal linear SNRs.
func NewFromPlacement(k int, p Placement, src *prng.Source) *Model {
	if p.MaxDistanceFt < p.MinDistanceFt {
		p.MinDistanceFt, p.MaxDistanceFt = p.MaxDistanceFt, p.MinDistanceFt
	}
	m := &Model{Taps: make([]complex128, k), NoisePower: 1}
	for i := 0; i < k; i++ {
		d := p.MinDistanceFt + src.Float64()*(p.MaxDistanceFt-p.MinDistanceFt)
		snrDB := p.ReferenceSNRdB
		if d > 0 && p.MinDistanceFt > 0 {
			// Round-trip (reader→tag→reader) log-distance loss: 2γ per
			// decade of distance relative to the reference point, in
			// power terms d^(-2γ)... the paper's single-tap h already
			// folds both directions, so apply the doubled exponent once.
			snrDB -= 10 * 2 * p.PathLossExponent * math.Log10(d/p.MinDistanceFt) / 2
		}
		if p.ShadowingSigmadB > 0 {
			snrDB += src.NormFloat64() * p.ShadowingSigmadB
		}
		m.Taps[i] = tapForSNR(snrDB, m.NoisePower, src)
	}
	return m
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

// Perturb returns a copy of the model with every tap rotated and scaled
// by small random amounts (fractional magnitude jitter magJitter, phase
// jitter up to phaseJitter radians). Experiments use it to model channel
// drift between the identification phase (where H is estimated) and the
// data phase (where it is used).
func (m *Model) Perturb(magJitter, phaseJitter float64, src *prng.Source) *Model {
	out := &Model{Taps: make([]complex128, len(m.Taps)), NoisePower: m.NoisePower}
	for i, h := range m.Taps {
		scale := 1 + (src.Float64()*2-1)*magJitter
		rot := (src.Float64()*2 - 1) * phaseJitter
		out.Taps[i] = h * cmplx.Rect(scale, rot)
	}
	return out
}

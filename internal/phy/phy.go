// Package phy models the physical layer of a backscatter link at sample
// granularity: ON-OFF keying waveforms, Miller-4 line coding (the EPC
// Gen-2 robust mode TDMA uses in the paper's experiments), tag timing
// imperfections (initial synchronization offset and clock drift, §8.1),
// oversampled waveform synthesis, and the reader-side primitives —
// integrate-and-dump and chip observations.
//
// Two levels of fidelity coexist:
//
//   - Symbol level: one complex observation per bit slot, which is what
//     Buzz's decoders consume (the paper's single-tap model makes a slot
//     equal one complex number). internal/channel produces these.
//   - Sample level: an oversampled waveform including carrier leakage,
//     per-tag fractional timing offsets and clock drift. The trace
//     figures (Fig. 2, 3, 8) and the CDMA orthogonality-loss mechanism
//     are generated here.
package phy

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/prng"
)

// DefaultBitRate is the uplink bit rate used throughout the paper's
// evaluation: 80 kbps (§8.2, §9).
const DefaultBitRate = 80_000

// BitDuration returns the duration of one bit in microseconds at the
// given bit rate.
func BitDuration(bitRate float64) float64 {
	return 1e6 / bitRate
}

// Timing captures a tag's deviation from the reader's ideal clock.
type Timing struct {
	// InitialOffsetBits is the start-of-transmission offset in units of
	// one bit duration. Fig. 7 measures this below 1 µs, i.e. under 8%
	// of an 80 kbps bit.
	InitialOffsetBits float64
	// DriftPPM is the tag clock's rate error in parts per million. The
	// Moo tags in Fig. 8 drift by ~half a bit over 160 bits ≈ 3000 ppm.
	DriftPPM float64
}

// Ideal is a perfectly synchronized tag.
var Ideal = Timing{}

// ChipAt returns the value of the tag's chip stream as seen at
// normalized time t (in units of chips), under this timing model. Time
// values before the (offset-shifted) start or beyond the stream's end
// read as false — the tag is silent.
func (tm Timing) ChipAt(chips []bool, t float64) bool {
	// The tag's local time runs fast or slow by the drift factor and
	// starts late by the initial offset.
	local := (t - tm.InitialOffsetBits) * (1 + tm.DriftPPM*1e-6)
	idx := int(math.Floor(local))
	if idx < 0 || idx >= len(chips) {
		return false
	}
	return chips[idx]
}

// CorrectDrift returns the timing with drift compensated, the procedure
// of §8.1: the tag counts ticks between two reader pulses and inserts
// correction cycles. A small residual remains (the quantization of the
// correction), modeled as 1% of the original drift.
func (tm Timing) CorrectDrift() Timing {
	return Timing{InitialOffsetBits: tm.InitialOffsetBits, DriftPPM: tm.DriftPPM * 0.01}
}

// SyncOffsetModel generates initial synchronization offsets matching the
// distributions measured in Fig. 7.
type SyncOffsetModel struct {
	// P90Micros is the 90th-percentile offset in microseconds.
	P90Micros float64
	// MaxMicros truncates the distribution; the paper observes a hard
	// ceiling below 1 µs.
	MaxMicros float64
}

// MooOffsets is the computational-RFID (Moo) offset model: 90th
// percentile 0.5 µs, max < 1 µs (Fig. 7).
var MooOffsets = SyncOffsetModel{P90Micros: 0.5, MaxMicros: 1.0}

// CommercialOffsets is the Alien Squiggle commercial-tag model: 90th
// percentile 0.3 µs, max < 1 µs (Fig. 7).
var CommercialOffsets = SyncOffsetModel{P90Micros: 0.3, MaxMicros: 1.0}

// Draw samples one offset in microseconds. Offsets follow a half-normal
// distribution scaled so the 90th percentile lands at P90Micros, truncated
// at MaxMicros.
func (m SyncOffsetModel) Draw(src *prng.Source) float64 {
	// For |N(0,σ)| the 90th percentile is ≈ 1.6449·σ.
	sigma := m.P90Micros / 1.6449
	for {
		v := math.Abs(src.NormFloat64()) * sigma
		if v <= m.MaxMicros {
			return v
		}
	}
}

// DrawTiming samples a full Timing for a tag at the given bit rate, with
// the given drift scale in ppm (uniform in ±driftPPM).
func (m SyncOffsetModel) DrawTiming(bitRate, driftPPM float64, src *prng.Source) Timing {
	offsetBits := m.Draw(src) / BitDuration(bitRate)
	drift := (src.Float64()*2 - 1) * driftPPM
	return Timing{InitialOffsetBits: offsetBits, DriftPPM: drift}
}

// --- Miller-4 line coding -------------------------------------------------

// MillerM is the Miller subcarrier multiplier used by the paper's TDMA
// baseline ("Miller-4 code is used in TDMA to increase its robustness").
const MillerM = 4

// ChipsPerBit is the number of impedance chips a Miller-4 bit occupies:
// 2 half-cycles per subcarrier cycle × M cycles.
const ChipsPerBit = 2 * MillerM

// MillerEncoder converts a bit vector into the Miller-M chip stream a tag
// drives onto its antenna. It implements the EPC Gen-2 Miller baseband
// rules — a data-1 inverts the baseband level mid-bit; a data-0 holds it,
// and additionally inverts at the bit boundary when following another
// data-0 — and then mixes the baseband with a square subcarrier of M
// cycles per bit. Chips are impedance states: true = reflecting.
type MillerEncoder struct {
	level   bool // current baseband level
	prevBit bool
	started bool
}

// EncodeBit appends one bit's worth of chips (ChipsPerBit of them) to dst
// and returns the extended slice.
func (e *MillerEncoder) EncodeBit(b bool, dst []bool) []bool {
	// Boundary inversion: 0 following 0.
	if e.started && !b && !e.prevBit {
		e.level = !e.level
	}
	half := ChipsPerBit / 2
	for c := 0; c < ChipsPerBit; c++ {
		if b && c == half {
			// Mid-bit inversion for a data-1.
			e.level = !e.level
		}
		// Subcarrier: alternates every chip.
		sub := c%2 == 0
		dst = append(dst, e.level == sub)
	}
	e.prevBit = b
	e.started = true
	return dst
}

// MillerEncodeInto encodes v into dst (which must have capacity for
// len(v)·ChipsPerBit chips) and returns the filled slice. It produces
// exactly MillerEncoder's stream, written half-bit blocks at a time
// instead of chip by chip — the form the TDMA baseline's inner loop
// uses.
func MillerEncodeInto(v bits.Vector, dst []bool) []bool {
	dst = dst[:len(v)*ChipsPerBit]
	level := false
	prevBit := false
	started := false
	const half = ChipsPerBit / 2
	for p, b := range v {
		if started && !b && !prevBit {
			level = !level
		}
		out := dst[p*ChipsPerBit : (p+1)*ChipsPerBit]
		// First half-bit: subcarrier alternation starting at `level`
		// (chip = level == sub, sub true on even chips).
		for c := 0; c < half; c += 2 {
			out[c] = level
			out[c+1] = !level
		}
		if b {
			level = !level
		}
		for c := half; c < ChipsPerBit; c += 2 {
			out[c] = level
			out[c+1] = !level
		}
		prevBit = b
		started = true
	}
	return dst
}

// MillerDecoder performs maximum-likelihood per-bit decoding of a
// Miller-M chip stream observed through a known single-tap channel. For
// each bit it synthesizes the two candidate chip sequences its state
// machine allows (data-0 and data-1), scores them against the received
// complex chip observations, picks the closer one and advances the state.
type MillerDecoder struct {
	// H is the tag's channel tap.
	H complex128
}

// Decode recovers nBits bits from the received chip observations. One
// observation per chip is expected; extra observations are ignored and a
// short stream truncates the decode.
//
// Scoring identity: for a candidate chip e_c ∈ {0, h},
// |w_c − e_c|² = |w_c|² + [e_c = h]·(|h|² − 2·Re(conj(h)·w_c)), so the
// per-hypothesis squared distance is a shared constant plus the sum of
// t_c = |h|² − 2·Re(conj(h)·w_c) over the chips the hypothesis reflects
// in. Comparing hypotheses therefore needs one real t_c per chip and
// two masked sums — half the arithmetic of forming both distances.
func (d MillerDecoder) Decode(rx []complex128, nBits int) bits.Vector {
	out := make(bits.Vector, 0, nBits)
	// Track the running encoder state for each hypothesis. The
	// candidate chips stage through one stack buffer across all bits.
	var hypBuf [ChipsPerBit]bool
	var tBuf [ChipsPerBit]float64
	hRe, hIm := real(d.H), imag(d.H)
	hPow := hRe*hRe + hIm*hIm
	state := MillerEncoder{}
	for i := 0; i < nBits; i++ {
		lo := i * ChipsPerBit
		hi := lo + ChipsPerBit
		if hi > len(rx) {
			break
		}
		window := rx[lo:hi]
		for c, w := range window {
			tBuf[c] = hPow - 2*(hRe*real(w)+hIm*imag(w))
		}

		best := false
		bestScore := math.Inf(1)
		var bestState MillerEncoder
		for _, hyp := range [2]bool{false, true} {
			st := state
			chips := st.EncodeBit(hyp, hypBuf[:0])
			var score float64
			for c, chip := range chips {
				if chip {
					score += tBuf[c]
				}
			}
			if score < bestScore {
				bestScore = score
				best = hyp
				bestState = st
			}
		}
		state = bestState
		out = append(out, best)
	}
	return out
}

// SwitchCount counts impedance transitions in a chip stream, the quantity
// the energy model charges for: each transition toggles the antenna
// switch. The initial turn-on from silence counts when the first chip
// reflects.
func SwitchCount(chips []bool) int {
	n := 0
	prev := false
	for _, c := range chips {
		if c != prev {
			n++
		}
		prev = c
	}
	return n
}

// --- OOK symbol operations -------------------------------------------------

// OOKChips maps a bit vector directly to chips: one chip per bit,
// reflecting on 1.
func OOKChips(v bits.Vector) []bool {
	out := make([]bool, len(v))
	copy(out, v)
	return out
}

// IntegrateAndDump averages groups of n samples into one symbol each,
// reducing noise variance by n. The reader's oversampling gain of §8.1
// ("use the middle samples of each bit") is this operation.
func IntegrateAndDump(samples []complex128, n int) []complex128 {
	if n <= 0 {
		panic(fmt.Sprintf("phy: IntegrateAndDump with n=%d", n))
	}
	out := make([]complex128, 0, len(samples)/n)
	for i := 0; i+n <= len(samples); i += n {
		var s complex128
		for j := 0; j < n; j++ {
			s += samples[i+j]
		}
		out = append(out, s/complex(float64(n), 0))
	}
	return out
}

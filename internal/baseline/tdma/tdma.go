// Package tdma implements the paper's TDMA baseline (§9): tags transmit
// their messages sequentially, one after another, each protected by
// Miller-4 line coding per the EPC Gen-2 robust mode.
//
// TDMA's aggregate rate is pinned at 1 bit/symbol no matter how good the
// channel is, and a tag whose channel cannot support 1 bit/symbol simply
// loses its message — the two failure modes Buzz's rateless design
// removes. Both behaviours fall out of this implementation naturally.
//
// Receiver model: with Miller-4, the reader coherently matched-filters
// the 8 chips of each bit against the two candidate waveforms (it knows
// each tag's channel tap and decodes tags one at a time, so collisions
// and near-far play no role here). Without Miller (UseMiller=false, kept
// for the ablation bench), the reader is a plain noncoherent
// magnitude-threshold OOK slicer, which loses the phase information and
// degrades faster in noise — the robustness gap the paper attributes to
// Miller-4.
package tdma

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/prng"
)

// Config parameterizes a TDMA run.
type Config struct {
	// CRC selects the per-message checksum.
	CRC bits.CRCKind
	// UseMiller enables Miller-4 line coding (the paper's setting).
	// Disabling it models a naive OOK TDMA for the ablation bench.
	UseMiller bool
	// DCWander is the per-bit step (standard deviation, in the same
	// units as channel taps) of a complex random-walk baseline drift
	// added to the received signal — the carrier-leakage wander and
	// low-frequency interference real backscatter readers fight. Plain
	// OOK's threshold slicer absorbs the drift into its decisions;
	// Miller's within-bit subcarrier structure cancels it exactly (both
	// decision candidates reflect during the same number of chips, so
	// a common offset drops out of the distance comparison). This is
	// the robustness the paper buys with Miller-4. Zero disables it.
	DCWander float64
}

// Result reports a TDMA data phase.
type Result struct {
	// BitSlots is the total air time in bit durations: K tags × frame
	// length (Miller-4 keeps the *bit* rate at 80 kbps; the 8× cost is
	// in impedance switching, not air time).
	BitSlots int
	// Frames holds each tag's decoded frame.
	Frames []bits.Vector
	// Verified flags frames that passed their CRC.
	Verified []bool
	// BitErrors counts raw bit errors against the transmitted frames.
	BitErrors int
	// SwitchCounts records impedance transitions per tag, the energy
	// model's input.
	SwitchCounts []int
}

// Lost counts messages that failed their CRC.
func (r *Result) Lost() int {
	n := 0
	for _, v := range r.Verified {
		if !v {
			n++
		}
	}
	return n
}

// Run executes the TDMA data phase: every tag transmits its frame in its
// assigned slot; the reader decodes each in isolation.
func Run(cfg Config, messages []bits.Vector, ch *channel.Model, noiseSrc *prng.Source) (*Result, error) {
	k := len(messages)
	if ch.K() != k {
		return nil, fmt.Errorf("tdma: channel has %d taps for %d tags", ch.K(), k)
	}
	res := &Result{
		Frames:       make([]bits.Vector, k),
		Verified:     make([]bool, k),
		SwitchCounts: make([]int, k),
	}
	soloActive := make([]bool, k)
	// Per-tag staging buffers, reused across the schedule: the chip
	// stream and the received waveform are the run's only large
	// working sets, and one slot's worth serves every tag in turn
	// (regrown if a later message is longer — unlike CDMA, TDMA does
	// not require equal message lengths).
	var chipBuf []bool
	var rxBuf []complex128
	var wander []complex128
	for i, msg := range messages {
		frame := bits.Message{Payload: msg, Kind: cfg.CRC}.Frame()
		res.BitSlots += len(frame)
		if need := len(frame) * phy.ChipsPerBit; cap(chipBuf) < need {
			chipBuf = make([]bool, 0, need)
			rxBuf = make([]complex128, need)
		}
		if cfg.DCWander > 0 && len(wander) < len(frame) {
			wander = make([]complex128, len(frame))
		}
		h := ch.Taps[i]
		// Only tag i is on the air during its slot; the receiver's
		// effective noise floor reflects that.
		soloActive[i] = true
		noisePower := ch.SlotNoisePower(soloActive)
		soloActive[i] = false

		// Baseline drift: a complex random walk stepping once per bit.
		if wander != nil {
			var w complex128
			for p := 0; p < len(frame); p++ {
				w += noiseSrc.ComplexNorm() * complex(cfg.DCWander, 0)
				wander[p] = w
			}
		}

		var decoded bits.Vector
		if cfg.UseMiller {
			decoded = runMiller(frame, h, noisePower, wander, noiseSrc, &res.SwitchCounts[i], chipBuf, rxBuf)
		} else {
			decoded = runPlainOOK(frame, h, noisePower, wander, noiseSrc, &res.SwitchCounts[i])
		}
		res.Frames[i] = decoded
		res.Verified[i] = bits.Verify(decoded, cfg.CRC)
		res.BitErrors += decoded.HammingDistance(frame)
	}
	return res, nil
}

// runMiller transmits one frame with Miller-4 chips and decodes it with
// the coherent per-bit matched filter. Chip observations carry 8× the
// per-bit noise power: a chip integrates one eighth of a bit duration,
// so the front end averages 8× fewer samples into it. The matched filter
// over the 8 chips of a bit recovers exactly the per-bit SNR — Miller
// buys robustness structure, not an AWGN miracle.
func runMiller(frame bits.Vector, h complex128, noisePower float64, wander []complex128, noiseSrc *prng.Source, switches *int, chipBuf []bool, rxBuf []complex128) bits.Vector {
	chips := phy.MillerEncodeInto(frame, chipBuf)
	*switches += phy.SwitchCount(chips)
	sigma := complex(math.Sqrt(noisePower*float64(phy.ChipsPerBit)), 0)
	rx := rxBuf[:len(chips)]
	for c, chip := range chips {
		var y complex128
		if chip {
			y = h
		}
		if wander != nil {
			y += wander[c/phy.ChipsPerBit]
		}
		rx[c] = y + noiseSrc.ComplexNorm()*sigma
	}
	return phy.MillerDecoder{H: h}.Decode(rx, len(frame))
}

// runPlainOOK transmits one frame as raw OOK and decodes it with a
// noncoherent magnitude threshold at |h|/2 — the receiver a tag without
// Miller's transition structure to lock a phase reference onto gets.
func runPlainOOK(frame bits.Vector, h complex128, noisePower float64, wander []complex128, noiseSrc *prng.Source, switches *int) bits.Vector {
	chips := phy.OOKChips(frame)
	*switches += phy.SwitchCount(chips)
	sigma := math.Sqrt(noisePower)
	threshold := cmplx.Abs(h) / 2
	out := make(bits.Vector, len(frame))
	for p, b := range frame {
		var y complex128
		if b {
			y = h
		}
		if wander != nil {
			y += wander[p]
		}
		y += noiseSrc.ComplexNorm() * complex(sigma, 0)
		out[p] = cmplx.Abs(y) > threshold
	}
	return out
}

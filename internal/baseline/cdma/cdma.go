// Package cdma implements the paper's CDMA baseline (§9): synchronous
// code-division multiple access with Walsh codes, at the same symbol
// (chip) rate as Buzz's bit rate — 80 k chips/s — so that spreading a
// bit over K chips costs K bit-durations of air time, exactly like
// TDMA's sequential schedule.
//
// Tags BPSK-modulate their chips (backscatter supports two-state phase
// modulation, §3.1) and all transmit concurrently; the reader despreads
// each tag with its ±1 Walsh row and makes a coherent decision against
// ±h_i.
//
// Why CDMA underperforms in the paper — and here: perfectly synchronous
// Walsh codes are orthogonal, but the tags' initial timing offsets (§8.1:
// up to ~1 µs ≈ 8% of an 80 kbps chip) smear chip boundaries, so a
// fraction of every strong tag's power leaks into every other tag's
// correlator. With the near-far disparities of a real deployment (tens
// of dB between a tag at 0.5 ft and one at 6 ft), that leakage buries
// the weak tags — power control, cellular CDMA's fix, is impossible for
// nodes that merely reflect (§9, footnote 6). The simulation integrates
// each tag's offset waveform over the reader's chip windows exactly, so
// this mechanism emerges from the timing model rather than being
// assumed. A SyncPerfect switch removes the offsets for the ablation
// bench.
package cdma

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/epc"
	"repro/internal/phy"
	"repro/internal/prng"
)

// WalshLength returns the spreading factor for k tags: the smallest
// power of two ≥ k (the paper's K = 12 case uses length-16 codes because
// "no Walsh code of 12 bits is available").
func WalshLength(k int) int {
	n := 1
	for n < k {
		n <<= 1
	}
	return n
}

// WalshRow returns the ±1 Walsh (Hadamard) code of the given row index
// and length (a power of two): w_i(c) = (−1)^popcount(i AND c).
func WalshRow(row, length int) []int8 {
	out := make([]int8, length)
	for c := 0; c < length; c++ {
		if parity(uint(row&c)) == 0 {
			out[c] = 1
		} else {
			out[c] = -1
		}
	}
	return out
}

func parity(x uint) int {
	p := 0
	for x != 0 {
		p ^= 1
		x &= x - 1
	}
	return p
}

// Config parameterizes a CDMA run.
type Config struct {
	// CRC selects the per-message checksum.
	CRC bits.CRCKind
	// SyncPerfect zeroes offsets and drift — the idealized CDMA the
	// ablation bench compares against. Otherwise each tag draws its
	// initial timing offset from phy.MooOffsets (the paper's
	// computational tags) and its clock drift from ±residualDriftPPM.
	SyncPerfect bool
}

// residualDriftPPM bounds the per-tag clock-rate error remaining after
// the §8.1 drift correction (uniform in ±residualDriftPPM). It matters
// for CDMA far more than for the other schemes: a CDMA frame is
// spreading-factor times longer than a TDMA frame (Ns·P chip
// durations), so even a corrected clock walks a meaningful fraction of
// a chip by the end, and Walsh orthogonality decays with it. 1500 ppm
// is the realistic figure for tags whose one-shot drift calibration
// (§8.1: computed once, reused for months) has aged across temperature
// and supply swings.
const residualDriftPPM = 1500

// Result reports a CDMA data phase.
type Result struct {
	// BitSlots is total air time in bit durations: frame length × the
	// spreading factor (all tags concurrent).
	BitSlots int
	// SpreadingFactor is the Walsh code length used.
	SpreadingFactor int
	// Frames, Verified, BitErrors as in the other schemes.
	Frames    []bits.Vector
	Verified  []bool
	BitErrors int
	// SwitchCounts records impedance transitions per tag.
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

// Account returns the air-time account for this run.
func (r *Result) Account() epc.TimeAccount {
	return epc.TimeAccount{UplinkBits: float64(r.BitSlots)}
}

// Run executes the CDMA data phase at sample level.
func Run(cfg Config, messages []bits.Vector, ch *channel.Model, noiseSrc *prng.Source) (*Result, error) {
	k := len(messages)
	if ch.K() != k {
		return nil, fmt.Errorf("cdma: channel has %d taps for %d tags", ch.K(), k)
	}
	res := &Result{}
	if k == 0 {
		return res, nil
	}
	frameLen := len(messages[0]) + cfg.CRC.Width()
	ns := WalshLength(k)
	res.SpreadingFactor = ns
	res.BitSlots = frameLen * ns
	res.Frames = make([]bits.Vector, k)
	res.Verified = make([]bool, k)
	res.SwitchCounts = make([]int, k)

	// Encode: tag i's chip stream, BPSK values ±1, frameLen·ns chips,
	// all tags packed into one flat block.
	nChips := frameLen * ns
	frames := make([]bits.Vector, k)
	streamsFlat := make([]int8, k*nChips)
	streams := make([][]int8, k)
	codes := make([][]int8, k)
	for i, msg := range messages {
		if len(msg) != len(messages[0]) {
			return nil, fmt.Errorf("cdma: message %d has %d bits, others %d", i, len(msg), len(messages[0]))
		}
		frames[i] = bits.Message{Payload: msg, Kind: cfg.CRC}.Frame()
		codes[i] = WalshRow(i, ns)
		stream := streamsFlat[i*nChips : (i+1)*nChips]
		for p, b := range frames[i] {
			d := int8(-1)
			if b {
				d = 1
			}
			for c := 0; c < ns; c++ {
				stream[p*ns+c] = d * codes[i][c]
			}
		}
		streams[i] = stream
		res.SwitchCounts[i] = switchCountBPSK(stream)
	}

	// Per-tag fractional chip offsets and residual clock drifts.
	offsets := make([]float64, k)
	drifts := make([]float64, k)
	if !cfg.SyncPerfect {
		chipMicros := 1e6 / epc.UplinkBitRate
		for i := range offsets {
			offsets[i] = phy.MooOffsets.Draw(noiseSrc) / chipMicros
			drifts[i] = (noiseSrc.Float64()*2 - 1) * residualDriftPPM * 1e-6
		}
	}

	// Integrate the superposed waveform per chip window, analytically:
	// a tag delayed by ε chips contributes (1−ε) of its current chip
	// and ε of its previous chip to the reader's chip-c window — the
	// exact integral of the offset rectangular waveform. This is what
	// erodes Walsh orthogonality; a sampled model would quantize
	// sub-sample offsets away.
	// Every tag is on the air for the whole frame (BPSK keeps the
	// antenna modulated even for 0 bits), so the receiver's dynamic
	// range must accommodate the full composite — the AGC noise term
	// rides on all K taps throughout.
	allActive := make([]bool, k)
	for i := range allActive {
		allActive[i] = true
	}
	sigma := complex(math.Sqrt(ch.SlotNoisePower(allActive)), 0)
	chipObs := make([]complex128, nChips)
	// Accumulate tag-major: each tag's delayed waveform streams
	// contiguously into the shared observation, with its offset, drift
	// and tap hoisted out of the chip loop. Per-chip accumulation order
	// across tags (0..K−1) matches the chip-major form, so the floats
	// are identical; only the traversal order changed.
	for i := 0; i < k; i++ {
		h := ch.Taps[i]
		off, drift := offsets[i], drifts[i]
		stream := streams[i]
		// Total delay of tag i's waveform: initial offset plus
		// accumulated drift. The reader window [chip, chip+1) overlaps
		// source chips chip−q−1 (fraction f) and chip−q (fraction
		// 1−f). q is piecewise constant in chip (the drift walks a
		// fraction of a chip over the whole frame), so track it with a
		// comparison instead of a Floor per chip; the source index
		// then advances in lockstep with the reader chip.
		q := int(math.Floor(off))
		for chip := 0; chip < nChips; chip++ {
			delta := off + drift*float64(chip)
			if delta-float64(q) >= 1 {
				q++
			} else if delta < float64(q) {
				q--
			}
			f := delta - float64(q)
			idxCur := chip - q
			cur, prev := 0.0, 0.0
			if idxCur >= 0 && idxCur < nChips {
				cur = float64(stream[idxCur])
			}
			if idxCur >= 1 && idxCur <= nChips {
				prev = float64(stream[idxCur-1])
			}
			w := (1-f)*cur + f*prev
			if w != 0 {
				chipObs[chip] += complex(real(h)*w, imag(h)*w)
			}
		}
	}
	for chip := 0; chip < nChips; chip++ {
		chipObs[chip] += noiseSrc.ComplexNorm() * sigma
	}

	// Despread and decide per tag, per bit.
	for i := 0; i < k; i++ {
		decoded := make(bits.Vector, frameLen)
		h := ch.Taps[i]
		code := codes[i]
		for p := 0; p < frameLen; p++ {
			var z complex128
			win := chipObs[p*ns : (p+1)*ns]
			for c, w := range code {
				if w > 0 {
					z += win[c]
				} else {
					z -= win[c]
				}
			}
			// Coherent decision: closer to +h (bit 1) or −h (bit 0),
			// i.e. |z−ns·h|² < |z+ns·h|² ⟺ Re(conj(h)·z) > 0 — the
			// same decision as the distance compare, without the two
			// square roots (and without dividing z by ns first).
			decoded[p] = real(h)*real(z)+imag(h)*imag(z) > 0
		}
		res.Frames[i] = decoded
		res.Verified[i] = bits.Verify(decoded, cfg.CRC)
		res.BitErrors += decoded.HammingDistance(frames[i])
	}
	return res, nil
}

// switchCountBPSK counts phase transitions in a ±1 chip stream — each
// one toggles the tag's impedance state.
func switchCountBPSK(stream []int8) int {
	n := 0
	for c := 1; c < len(stream); c++ {
		if stream[c] != stream[c-1] {
			n++
		}
	}
	return n + 1 // initial turn-on
}

// Time-varying channels. The paper's evaluation freezes each tag's tap
// for a whole inventory round (one Model per trial); the scenario
// engine opens the workloads where that assumption breaks — tags on
// forklifts, doors opening, people walking through the aisle — by
// modelling the taps as a slot-indexed stochastic process. Three
// processes cover the classic fading taxonomy:
//
//   - Static: the paper's frozen-tap round (one Model for every slot).
//   - BlockFading: taps redrawn independently every B slots — the
//     standard block-fading abstraction for channels whose coherence
//     time spans several symbols.
//   - GaussMarkov: a first-order autoregressive correlated-Rayleigh
//     evolution, h_i(t) = ρ_i·h_i(t−1) + √(1−ρ_i²)·σ_i·CN(0,1), the
//     discrete-time Gauss–Markov model of continuous mobility; ρ_i is
//     the per-tag Doppler/mobility coefficient (ρ→1 quasi-static,
//     ρ→0 memoryless).
//
// Every process derives its randomness from addressable prng.Mix3
// streams keyed by (seed, slot/block, tag), so the taps in effect at a
// given slot are a pure function of the seed — independent of query
// order and of which tags have joined the round.
package channel

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// Process is a time-varying channel: a slot-indexed sequence of Models
// over a fixed tag roster. Implementations mutate and return one
// internal Model, so the result of ModelAt aliases process state and is
// valid only until the next ModelAt call. Slots must be queried in
// nondecreasing order; repeated queries for the same slot are no-ops
// returning the same model, which lets the air synthesizer and the
// decoder's retap path share one process instance.
type Process interface {
	// K returns the number of tags the process covers.
	K() int
	// ModelAt advances the process to the given 1-based slot and
	// returns the model in effect there.
	ModelAt(slot int) *Model
	// Static reports whether the taps can never change across slots;
	// callers use it to skip per-slot retap work entirely.
	Static() bool
	// CoherenceSlots reports how long the process's taps stay strongly
	// correlated, in slots — the horizon beyond which an observation
	// carries vanishing information about the current channel, and the
	// natural decode-window length for a coherence-windowed receiver.
	// 0 means "forever" (a static process).
	CoherenceSlots() int
	// CoherenceSlotsTag is CoherenceSlots for one tag: processes with
	// heterogeneous mobility (Gauss–Markov per-tag ρ) report each tag's
	// own horizon, so a per-tag-windowed receiver can keep a parked
	// tag's whole history while a forklift tag forgets in a few slots.
	// Processes whose tags all move together (Static, BlockFading) fall
	// back to the global value.
	CoherenceSlotsTag(tag int) int
}

// StaticProcess adapts a frozen Model to the Process interface — the
// paper's per-round channel as the degenerate time-varying case.
type StaticProcess struct {
	M *Model
}

// NewStatic wraps m in a StaticProcess.
func NewStatic(m *Model) *StaticProcess { return &StaticProcess{M: m} }

// K returns the tag count.
func (s *StaticProcess) K() int { return s.M.K() }

// ModelAt returns the frozen model regardless of slot.
func (s *StaticProcess) ModelAt(int) *Model { return s.M }

// Static reports true.
func (s *StaticProcess) Static() bool { return true }

// CoherenceSlots reports 0: frozen taps are coherent forever.
func (s *StaticProcess) CoherenceSlots() int { return 0 }

// CoherenceSlotsTag falls back to the global value: every frozen tag is
// coherent forever.
func (s *StaticProcess) CoherenceSlotsTag(int) int { return 0 }

// BlockFading redraws every tag's tap independently at the start of
// each block of BlockLen slots: within a block the channel is the
// paper's frozen round, across blocks it decorrelates completely. Taps
// are drawn exactly as NewFromSNRBand draws them — per-tag SNR uniform
// in the configured dB band against a unit noise floor, uniform phase —
// from the addressable stream Mix3(seed, block, tag).
type BlockFading struct {
	m          *Model
	seed       uint64
	blockLen   int
	loDB, hiDB float64
	curBlock   int
}

// NewBlockFading builds a block-fading process over k tags with taps
// redrawn every blockLen slots from the [loDB, hiDB] SNR band. The
// noise floor is 1 (tap powers are linear SNRs) and agc sets the
// receiver dynamic-range impairment, as in NewFromSNRBand.
func NewBlockFading(k int, loDB, hiDB float64, blockLen int, agc float64, seed uint64) *BlockFading {
	if blockLen < 1 {
		panic(fmt.Sprintf("channel: BlockFading needs blockLen >= 1, got %d", blockLen))
	}
	if hiDB < loDB {
		loDB, hiDB = hiDB, loDB
	}
	return &BlockFading{
		m:        &Model{Taps: make([]complex128, k), NoisePower: 1, AGCNoiseFraction: agc},
		seed:     seed,
		blockLen: blockLen,
		loDB:     loDB,
		hiDB:     hiDB,
		curBlock: -1,
	}
}

// K returns the tag count.
func (b *BlockFading) K() int { return b.m.K() }

// Static reports false.
func (b *BlockFading) Static() bool { return false }

// CoherenceSlots reports the block length: within a block the taps are
// frozen, across a boundary they decorrelate completely.
func (b *BlockFading) CoherenceSlots() int { return b.blockLen }

// CoherenceSlotsTag falls back to the global value: every tap is
// redrawn on the same block boundaries.
func (b *BlockFading) CoherenceSlotsTag(int) int { return b.blockLen }

// ModelAt returns the model of the block containing the 1-based slot,
// redrawing the taps when the block index changed.
func (b *BlockFading) ModelAt(slot int) *Model {
	blk := (slot - 1) / b.blockLen
	if blk == b.curBlock {
		return b.m
	}
	b.curBlock = blk
	var src prng.Source
	sb := prng.Mix2(b.seed, uint64(blk))
	for i := range b.m.Taps {
		src.Reseed(prng.Mix3From(sb, uint64(i)))
		snrDB := b.loDB + src.Float64()*(b.hiDB-b.loDB)
		b.m.Taps[i] = tapForSNR(snrDB, b.m.NoisePower, &src)
	}
	return b.m
}

// GaussMarkov evolves an initial Model by the first-order correlated-
// Rayleigh recursion
//
//	h_i(t) = ρ_i·h_i(t−1) + √(1−ρ_i²)·σ_i·CN(0,1)
//
// with σ_i = |h_i(0)| (each tag's stationary tap magnitude, so the
// configured SNR statistics hold at every slot: E|h_i(t)|² = σ_i² for
// all t) and per-(slot, tag) innovations from the addressable stream
// Mix3(seed, slot, tag). The lag-1 autocorrelation of each tap sequence
// is exactly ρ_i; under Jakes' model ρ = J₀(2π·f_D·T) for Doppler f_D
// and slot duration T (see RhoFromDoppler).
type GaussMarkov struct {
	m       *Model
	seed    uint64
	rho     []float64
	innov   []float64 // √(1−ρ_i²)·σ_i, hoisted
	curSlot int
}

// NewGaussMarkov wraps the initial model (drawn by the caller, e.g.
// NewFromSNRBand) in a Gauss–Markov evolution. rho holds each tag's
// mobility coefficient in [0, 1] (ρ = 1 freezes the tag — a parked tag
// among movers); a single-element rho applies to every tag. init's
// taps define both h(0) and the per-tag stationary powers;
// the model is mutated in place by ModelAt, so callers wanting to keep
// the initial realization should pass a copy.
func NewGaussMarkov(init *Model, rho []float64, seed uint64) *GaussMarkov {
	k := init.K()
	r := make([]float64, k)
	switch len(rho) {
	case 1:
		for i := range r {
			r[i] = rho[0]
		}
	case k:
		copy(r, rho)
	default:
		panic(fmt.Sprintf("channel: GaussMarkov got %d rho coefficients for %d tags", len(rho), k))
	}
	g := &GaussMarkov{m: init, seed: seed, rho: r, innov: make([]float64, k)}
	for i, h := range init.Taps {
		if r[i] < 0 || r[i] > 1 {
			panic(fmt.Sprintf("channel: GaussMarkov rho[%d] = %v outside [0, 1]", i, r[i]))
		}
		sigma := math.Hypot(real(h), imag(h))
		g.innov[i] = math.Sqrt(1-r[i]*r[i]) * sigma
	}
	return g
}

// K returns the tag count.
func (g *GaussMarkov) K() int { return g.m.K() }

// Static reports false.
func (g *GaussMarkov) Static() bool { return false }

// CoherenceSlots reports the coherence window of the fastest-moving
// tag: the minimum over tags of CoherenceSlotsFromRho(ρ_i), skipping
// parked tags (ρ = 1). A roster of parked tags is coherent forever (0).
func (g *GaussMarkov) CoherenceSlots() int {
	minW := 0
	for _, r := range g.rho {
		if w := CoherenceSlotsFromRho(r); w > 0 && (minW == 0 || w < minW) {
			minW = w
		}
	}
	return minW
}

// CoherenceSlotsTag reports the coherence window of one tag:
// CoherenceSlotsFromRho(ρ_i), 0 ("forever") for a parked tag. A
// heterogeneous roster is exactly where the per-tag view diverges from
// CoherenceSlots' fastest-mover minimum.
func (g *GaussMarkov) CoherenceSlotsTag(tag int) int {
	return CoherenceSlotsFromRho(g.rho[tag])
}

// ModelAt advances the recursion through every slot up to the given
// 1-based slot (h(0) is the initial model, in effect at slot 1) and
// returns the evolved model.
func (g *GaussMarkov) ModelAt(slot int) *Model {
	var src prng.Source
	for t := g.curSlot + 1; t <= slot-1; t++ {
		st := prng.Mix2(g.seed, uint64(t))
		for i, h := range g.m.Taps {
			src.Reseed(prng.Mix3From(st, uint64(i)))
			g.m.Taps[i] = complex(g.rho[i], 0)*h + src.ComplexNorm()*complex(g.innov[i], 0)
		}
	}
	if slot-1 > g.curSlot {
		g.curSlot = slot - 1
	}
	return g.m
}

// CoherenceSlotsFromRho inverts RhoFromDoppler's role: it converts a
// per-slot tap autocorrelation ρ into a coherence window, the largest
// n with ρⁿ ≥ ½ — the discrete analogue of the textbook coherence-time
// definition (the lag at which the correlation decays to half). ρ = 1
// returns 0 ("forever", a parked tag); ρ ≤ 0 returns 1 (memoryless:
// only the newest observation says anything about the current taps).
func CoherenceSlotsFromRho(rho float64) int {
	if rho >= 1 {
		return 0
	}
	if rho <= 0 {
		return 1
	}
	n := int(math.Log(0.5) / math.Log(rho))
	if n < 1 {
		n = 1
	}
	return n
}

// RhoFromDoppler returns the Gauss–Markov coefficient matching Jakes'
// model for a tag moving with Doppler spread fdHz observed at one
// sample per slot of slotSeconds: ρ = J₀(2π·f_D·T), clamped to [0, 1]
// (fast movers decorrelate completely within a slot).
func RhoFromDoppler(fdHz, slotSeconds float64) float64 {
	rho := math.J0(2 * math.Pi * fdHz * slotSeconds)
	if rho < 0 {
		return 0
	}
	if rho > 1 {
		return 1
	}
	return rho
}

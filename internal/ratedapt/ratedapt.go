// Package ratedapt implements Buzz's distributed rate-adaptation protocol
// (§6): the rateless collision code across tags and the reader-side
// incremental decoding loop.
//
// Protocol (paper §6a): the reader broadcasts a single start command. In
// every time slot, each tag draws a pseudorandom bit seeded by its
// temporary id and the slot index — shared state with the reader via
// internal/prng — and transmits its entire message if the bit is 1,
// staying silent otherwise. The reader accumulates collision symbols,
// decodes incrementally with the belief-propagation decoder, and cuts its
// carrier (stopping everyone at once) as soon as every message passes its
// CRC. No per-tag feedback, no scheduling: the aggregate rate K/L
// bits/symbol floats with channel quality.
//
// Sparsity (§6d): the participation probability is tuned to the reader's
// estimate of K so only a few tags collide per slot — the low-density
// property that makes the bit-flipping decoder behave like BP on an LDPC
// code.
package ratedapt

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// DefaultMeanColliders is the target expected number of tags per
// collision slot. Around 5 keeps the code sparse enough for clean BP
// decoding yet dense enough that slots carry information; the ablation
// bench sweeps this.
const DefaultMeanColliders = 5.0

// MaxDensity caps the per-slot participation probability. Density 1
// would repeat the identical collision forever — "multiple copies of the
// same codeword", which §1 of the paper calls out as undecodable: any
// constellation ambiguity between tags would never resolve. Keeping a
// quarter of the slots varied guarantees the rows of D keep supplying
// fresh tag subsets.
const MaxDensity = 0.75

// Config parameterizes a data-phase transfer.
type Config struct {
	// Seeds holds each tag's temporary id, the seed both sides feed the
	// participation generator. len(Seeds) defines K.
	Seeds []uint64
	// SessionSalt decorrelates this session's randomness from earlier
	// runs; the reader picks it and includes it in the start command.
	SessionSalt uint64
	// CRC selects the checksum protecting each message.
	CRC bits.CRCKind
	// Density is the per-slot participation probability. Zero derives
	// it from K as min(1, DefaultMeanColliders/K).
	Density float64
	// MaxSlots caps the rateless loop; transfers that still have
	// unverified messages at the cap report them as lost. Zero defaults
	// to 40·K, far beyond anything a sane channel needs.
	MaxSlots int
	// Restarts is the number of extra random BP initializations per bit
	// position each round (0 = single descent per round).
	Restarts int
	// MinDegreeForCRC is the participation count a tag needs before the
	// reader will CRC-check (and potentially lock) its message. Below 1
	// a tag's bits are pure initialization noise and a 5-bit CRC would
	// false-accept 1 in 32 of them. Default 1.
	MinDegreeForCRC int
	// MarginThreshold gates CRC checks on decoding confidence: a frame
	// is only checked when every bit position's normalized flip margin
	// (the minMargin output of bp.Session.DecodeSlot) is at least this
	// value. A short CRC alone is
	// too weak against the many garbage frames the reader sees before
	// convergence — 1 in 32 of them would false-accept — while a frame
	// whose every bit is strongly pinned is almost never garbage.
	// Zero means the default 0.5; negative disables the gate.
	MarginThreshold float64
	// RefineChannel re-estimates the channel taps each slot by least
	// squares against the current bit estimates, jointly across every
	// bit position (damped 50/50 against the previous estimate). Use it
	// when the decoder's taps come from the identification phase rather
	// than an oracle: stage-C estimates carry noise that would
	// otherwise cap the decoder's confidence margins below the locking
	// thresholds on poor channels. The refinement is the standard
	// decision-directed channel tracking a production reader performs.
	RefineChannel bool
	// SilenceDecoded enables the alternative design §8.2 weighs and
	// rejects: the reader ACKs each tag whose message verified (echoing
	// its temporary id on the downlink), and the silenced tag stops
	// participating in later slots. Fewer colliders help the
	// stragglers, but every ACK costs downlink air time — at EPC rates
	// about 1.4 message-slots' worth — which is why the paper keeps all
	// tags colliding until one global stop. Result.AckDownlinkBits and
	// Result.AckTurnarounds expose the cost so the extension bench can
	// reproduce the paper's ~75% overhead estimate.
	SilenceDecoded bool
	// DiesAtSlot injects the §6d power-failure scenario: tag i stops
	// transmitting from slot DiesAtSlot[i] on (0 or missing = never).
	// The reader does not know — it keeps reconstructing D as if the
	// tag still participated, so the dead tag's scheduled slots carry
	// model mismatch. The paper argues (and the tests verify) that
	// already-decoded tags are unaffected and the survivors merely need
	// more collisions. Nil disables injection.
	DiesAtSlot []int
	// Scratch, when non-nil, supplies the transfer's working buffers —
	// the observation store, the participation matrix backing, and every
	// per-slot decoder buffer — from a per-worker arena instead of the
	// heap. The simulator hands each trial worker one Scratch and Resets
	// it between trials; after the first (warm-up) trial, the steady-
	// state decode loop allocates only the escaping Result. Results are
	// bit-identical with and without a Scratch.
	Scratch *scratch.Scratch
	// Session, when non-nil, supplies the transfer's incremental decoder
	// state (graph, per-position residual/gain caches) from a long-lived
	// bp.Session instead of a pooled one. The simulator hands each trial
	// worker one Session so its buffers warm across trials. Results are
	// identical with and without it.
	Session *bp.Session
	// Window bounds the collision history the decoder explains — the
	// coherence-windowed decode for fast-fading channels. The zero
	// value keeps the classic whole-round decoder; see WindowPolicy.
	Window WindowPolicy
	// OnArrival, used only by TransferDynamic, is invoked once per slot
	// that admits new roster tags, before their first collision slot,
	// with the arriving roster indices and the present population: the
	// tags joined so far less those departed, this slot's arrivals and
	// departures included (RosterWalk's Arrived − Departed). It returns
	// the uplink bit-slot cost of the reader's re-identification burst
	// (charged to DynamicResult.ReidentBitSlots); the scenario layer
	// runs the actual identification protocol here. Nil charges nothing.
	OnArrival func(slot int, arriving []int, present int) int
}

// participationDensity derives the per-slot participation probability
// for n transmitting tags: an explicit configured density wins;
// otherwise DefaultMeanColliders/n clamped to MaxDensity. Stream
// re-derives it as the population churns; a static roster keeps the
// slot-1 value.
func participationDensity(explicit float64, n int) float64 {
	if explicit > 0 {
		return explicit
	}
	if n == 0 {
		return 1
	}
	d := DefaultMeanColliders / float64(n)
	if d > MaxDensity {
		return MaxDensity
	}
	return d
}

func (c *Config) minDegree() int {
	if c.MinDegreeForCRC > 0 {
		return c.MinDegreeForCRC
	}
	return 1
}

func (c *Config) marginThreshold() float64 {
	switch {
	case c.MarginThreshold < 0:
		return 0
	case c.MarginThreshold == 0:
		return 0.5
	default:
		return c.MarginThreshold
	}
}

// pendingFrame is a CRC-passing frame awaiting stability confirmation:
// it locks only if it survives unchanged past new evidence. The classic
// gates confirm by participation count (degree); the coherence-windowed
// gates confirm by slot distance (the frame must re-pass the full gate
// a whole window later, against a disjoint evidence set).
type pendingFrame struct {
	frame  bits.Vector
	degree int
	slot   int
}

// gateState is the per-tag acceptance bookkeeping of a Stream. All
// slices have one entry per decodable tag; estimates/locked/candidates
// persist across slots, the CRC memoization trio avoids re-checking
// unchanged frames.
type gateState struct {
	estimates    []bits.Vector
	locked       []bool
	decodedAt    []int
	candidates   []*pendingFrame
	frameChanged []bool
	frameOK      []bool
	crcValid     []bool
	frames       []bits.Vector // Result.Frames destination
}

// gatePolicy is one slot's effective acceptance-gate parameters. The
// classic (windowless) values are thr = Config.marginThreshold(),
// condThr = thr/2, confirmWindow 0 — exactly the PR-2 gates, weak-tag
// half-margin confirmation included. The coherence-windowed gates
// (confirmWindow > 0) differ in two coupled ways:
//
//   - The margin thresholds are rescaled down by the session's
//     accumulated in-window model-error energy (1 + 2·DriftFraction in
//     the denominator). Drift eats margin: the residual of a correctly
//     decoded position still carries the mismatch energy of every
//     in-window row whose taps have moved since it was absorbed, so
//     under drift an honest frame's worst-position margin sits well
//     below its static-channel value and the classic threshold would
//     starve acceptance entirely. The rescale restores the gate's
//     operating point — acceptance confidence survives drift.
//
//   - What the rescale gives up in single-window selectivity, the
//     confirmWindow gate wins back with independence: every acceptance
//     must pass the full gate (margins + conditional re-decode) twice,
//     for the identical frame, at least confirmWindow slots apart. Two
//     passes a window apart rest on nearly disjoint collision rows
//     (they share at most the boundary row, and the channel at the
//     window edge retains only ~ρ^W ≈ half its correlation), so a
//     constellation coincidence that fools one window practically
//     never reproduces the same wrong frame in the next — the
//     false-accept probability is approximately squared exactly where
//     in-window margins alone cannot be trusted. The classic weak-tag
//     half-margin path is off in this mode: under model error a wrong
//     frame can sit stable for slots (the drifting channel, not the
//     frame, explains the changing residuals), so "stable + half
//     margin" is not independent evidence the way two far-apart
//     windows are.
type gatePolicy struct {
	thr, condThr  float64
	confirmWindow int
	// winTag, under a per-tag window policy, holds each tag's resolved
	// window: the double-confirmation distance becomes per tag — a
	// mover must re-pass the full gate a whole window of its own later.
	// A never-windowed tag confirms at confirmWindow (the roster's
	// largest finite window): its margins ride the same drift-deflated
	// thresholds as everyone's — the movers' model error pollutes the
	// rows they share — so the classic weak-tag path it would otherwise
	// keep is exactly the 1-in-32 CRC loophole the deflation reopens.
	winTag []int
}

// confirmCap bounds the per-tag double-confirmation distance. The
// distance exists to make the two passes rest on (nearly) disjoint
// evidence, and for a fast mover the window IS that distance — but a
// slow mover's window can span hundreds of slots, and waiting a whole
// one before every acceptance would cost more air time than the round
// itself. Past this cap the coherence time is long enough that the
// per-slot drift deflation is tiny and the gates are essentially the
// classic calibrated ones; two full-gate passes a capped distance
// apart still kill every transient coincidence, and the full-height
// conditional bar (thrFor) covers the stable ones.
const confirmCap = 2 * MinAutoWindow

// confirmFor returns the double-confirmation distance for tag i: the
// tag's own window under a per-tag policy (never-windowed tags use the
// policy-wide confirmWindow), the global one otherwise (0 = classic
// gates). Per-tag distances are bounded by confirmCap.
func (gp *gatePolicy) confirmFor(i int) int {
	if gp.winTag != nil {
		w := gp.winTag[i]
		if w == 0 {
			w = gp.confirmWindow
		}
		return min(w, confirmCap)
	}
	return gp.confirmWindow
}

// thrFor returns tag i's effective margin thresholds. Under a per-tag
// window the base thresholds deflate by the tag's own maximum
// in-window drift fraction (bp.Session.DriftFractionTag): a mover's
// honest margins sit below their static value in proportion to the
// model error banked against its in-window rows, and a parked tag's in
// proportion to the orphan energy its movers left behind. The fraction
// is clamped at 1 — once the banked model error reaches the rows'
// signal energy the margins carry no more calibration to spend, and a
// further-deflated bar would wave garbage through (the gate bottoms
// out at thr/3, the deepest deflation the fast-mobility calibration
// supports). Global and classic gates pass the pre-computed thresholds
// through.
func (gp *gatePolicy) thrFor(sess *bp.Session, i int) (thr, condThr float64) {
	if gp.winTag == nil {
		return gp.thr, gp.condThr
	}
	f := sess.DriftFractionTag(i)
	if f > 1 {
		f = 1
	}
	d := 1 + 2*f
	condThr = gp.condThr / d
	if gp.winTag[i] == 0 {
		// A never-windowed tag's rows are never retired, so its
		// confirmation passes share evidence, and the conditional
		// re-decode, the one probe that sees coordinated multi-bit
		// coincidences, is the only real protection: keep that bar at
		// full height. Pollution inflates BOTH sides of the conditional
		// comparison equally, so unlike the flip margins it does not
		// need the deflation to stay reachable.
		condThr = gp.condThr
	}
	return gp.thr / d, condThr
}

// acceptSlot applies one slot's estimate refresh and acceptance gates.
// It folds the session's per-position decode into the per-tag
// estimates, then locks every tag whose frame verifies, calling
// onAccept(i) for each newly locked tag. Returns the number of tags
// locked this slot.
//
// A bare 5-bit CRC would false-accept 1 in 32 of the garbage frames the
// reader sees before convergence, so acceptance takes one of two paths
// (classic gates; see gatePolicy for the windowed variant):
//
//   - confident — every bit position's flip margin clears the threshold
//     (strong tags; enables the paper's slot-1 decodes), or
//
//   - confirmed — the identical frame keeps passing CRC while the tag
//     participates in a further collision, with at least half the
//     confident margin (weak tags, whose margins are noisy). The margin
//     floor matters: a frame that is *stably wrong* accumulates mismatch
//     energy as evidence arrives, so its wrong bits develop negative
//     flip margins — repeated CRC passes of an unchanged frame alone
//     would re-check the same 1-in-32 event, not an independent one.
//
// condOK then re-tests every bit position of the tag with the bit
// forced opposite and the rest re-optimized, reusing the session's
// cached residual and error per position. Single-flip margins cannot
// see constellation near-coincidences where several tags' bits swap
// together; this can (see bp.Session.ConditionalMargin). A position
// whose installed gains already prove the margin clears the threshold
// skips the re-descent (bp.Session.ConditionalMarginAtLeast), with the
// same decision.
func (cfg *Config) acceptSlot(sess *bp.Session, slot, k, frameLen int, gs *gateState,
	minMargin []float64, ambiguous []bool, gp gatePolicy, onAccept func(i int)) int {

	// Only unlocked tags' bits can change, and each (tag, position)
	// update is independent, so the refresh walks unlocked tags only. The
	// estimates equal the session's bits after every refresh, and a new
	// tag's from its Grow on, so a decode that moved no bit
	// (DecodeMoved) leaves nothing to refresh.
	if sess.DecodeMoved() {
		for i := 0; i < k; i++ {
			if gs.locked[i] {
				continue
			}
			est := gs.estimates[i]
			for p := 0; p < frameLen; p++ {
				if b := sess.PosBits(p)[i]; bool(est[p]) != b {
					est[p] = b
					gs.frameChanged[i] = true
				}
			}
		}
	}
	condOK := func(i int, condThr float64) bool {
		for p := 0; p < frameLen; p++ {
			if !sess.ConditionalMarginAtLeast(p, i, gs.locked[:k], condThr) {
				return false
			}
		}
		return true
	}
	newly := 0
	for i := 0; i < k; i++ {
		deg := sess.Degree(i)
		if gs.locked[i] || deg < cfg.minDegree() || ambiguous[i] {
			continue
		}
		if gs.frameChanged[i] || !gs.crcValid[i] {
			gs.frameOK[i] = bits.Verify(gs.estimates[i], cfg.CRC)
			gs.crcValid[i] = true
			gs.frameChanged[i] = false
		}
		if !gs.frameOK[i] {
			gs.candidates[i] = nil
			continue
		}
		thr, condThr := gp.thrFor(sess, i)
		accept := minMargin[i] >= thr
		if cw := gp.confirmFor(i); cw > 0 {
			// Windowed acceptance: the full gate (margins + conditional
			// re-decode) must pass now AND have passed for the identical
			// frame at least confirmWindow slots ago. During the wait
			// interval the conditional re-decode is skipped — its result
			// could not change the outcome, and it is the expensive part
			// of the gate. A failed second pass deliberately does NOT
			// re-stamp the candidate: the first pass stays on record and
			// the gate retries at the next qualifying slot, trading a
			// repeat of condOK (rare — margins must clear first) for
			// delivery latency on a channel where every slot is dear.
			if accept {
				switch c := gs.candidates[i]; {
				case c == nil || !c.frame.Equal(gs.estimates[i]):
					if condOK(i, condThr) { // first full-gate pass
						gs.candidates[i] = &pendingFrame{frame: gs.estimates[i].Clone(), slot: slot}
					}
					accept = false
				case slot < c.slot+cw:
					accept = false
				default:
					accept = condOK(i, condThr) // second full-gate pass
				}
			}
		} else {
			if !accept && minMargin[i] >= thr/2 {
				if c := gs.candidates[i]; c != nil && c.frame.Equal(gs.estimates[i]) {
					if deg >= c.degree+1 {
						accept = true
					}
				} else {
					gs.candidates[i] = &pendingFrame{frame: gs.estimates[i].Clone(), degree: deg}
				}
			}
			accept = accept && condOK(i, condThr)
		}
		if accept {
			gs.locked[i] = true
			gs.decodedAt[i] = slot
			gs.frames[i] = gs.estimates[i].Clone()
			gs.candidates[i] = nil
			newly++
			if onAccept != nil {
				onAccept(i)
			}
		}
	}
	return newly
}

// gatesWith returns the slot's acceptance-gate parameters. Without a
// window (win 0, wins nil) the classic gates pass through untouched.
// With the coherence window active the thresholds deflate with the
// session's measured model-error fraction and the disjoint-window
// double confirmation switches on — see gatePolicy for why the two
// must move together. The factor 2 calibrates the rescale to the
// fast-mobility regime (ρ ≈ 0.9): correct delivery saturates there
// while the pinned goldens hold zero wrong payloads across seeds.
//
// Under a per-tag window (wins non-nil) the gates go per tag: each
// tag's thresholds deflate by its own maximum in-window drift fraction
// (gatePolicy.thrFor — a parked tag keeps the full bar), every
// acceptance double-confirms at the tag's own window distance, and a
// never-windowed tag confirms at maxWin, the roster's largest finite
// window. A Stream's wins slice covers only the tags joined so far, so
// maxWin is fixed at open (StreamConfig.ConfirmWindow) and passed
// through, which keeps the never-windowed tags' confirmation distance
// identical whether the roster arrived up front or over the wire.
func (cfg *Config) gatesWith(sess *bp.Session, win int, wins []int, maxWin int) gatePolicy {
	thr := cfg.marginThreshold()
	if wins != nil {
		return gatePolicy{thr: thr, condThr: thr / 2, confirmWindow: maxWin, winTag: wins}
	}
	if win <= 0 {
		return gatePolicy{thr: thr, condThr: thr / 2}
	}
	thr /= 1 + 2*sess.DriftFraction()
	return gatePolicy{thr: thr, condThr: thr / 2, confirmWindow: win}
}

// Participates reports whether the tag with the given seed transmits in
// the given slot of this session. Tag hardware evaluates exactly this
// function; the reader evaluates it too when it reconstructs D.
func Participates(seed, sessionSalt uint64, slot int, density float64) bool {
	return prng.BiasedBitAt(prng.Mix2(seed, sessionSalt), uint64(slot), density)
}

// SlotResult records the decoding state after one collision slot, the
// data behind Fig. 9.
type SlotResult struct {
	// Slot is the 1-based slot index.
	Slot int
	// Colliders is the number of tags that transmitted in this slot.
	Colliders int
	// NewlyDecoded is how many messages passed CRC at this slot.
	NewlyDecoded int
	// TotalDecoded is the cumulative count of verified messages.
	TotalDecoded int
	// BitsPerSymbol is the running aggregate rate: verified messages ÷
	// slots so far (each slot spends one message-length of symbols to
	// deliver K messages' worth when all decode).
	BitsPerSymbol float64
}

// Result is the outcome of a transfer.
type Result struct {
	// SlotsUsed is the number of collision slots consumed (L).
	SlotsUsed int
	// Frames holds the decoded frame (payload+CRC) per tag; only
	// meaningful where Verified is true.
	Frames []bits.Vector
	// Verified flags tags whose message passed its CRC.
	Verified []bool
	// DecodedAtSlot records, per tag, the 1-based slot at which its
	// message verified; 0 means never.
	DecodedAtSlot []int
	// Progress has one entry per slot (Fig. 9's series).
	Progress []SlotResult
	// Participation counts, per tag, the slots it transmitted in — the
	// energy model's input.
	Participation []int
	// AckDownlinkBits and AckTurnarounds accumulate the reader feedback
	// cost when SilenceDecoded is on (zero otherwise).
	AckDownlinkBits int
	AckTurnarounds  int
	// BitsPerSymbol is the final aggregate rate K/L when everything
	// verified, or verified/L otherwise.
	BitsPerSymbol float64
	// WindowSlots is the effective coherence window the decode ran
	// with (0 = the classic unbounded decoder) and RowsRetired the
	// total rows the session retired under it — whole collision rows
	// under a global window, (row, tag) removals summed over tags under
	// a per-tag one.
	WindowSlots int
	RowsRetired int
	// WindowSlotsTag, under a per-tag window policy, holds each roster
	// tag's resolved window (0 = that tag never windows); nil otherwise.
	WindowSlotsTag []int
	// RowsRetiredTag, under a per-tag window policy, counts per roster
	// tag the collision rows that aged out of that tag's window and
	// left its adjacency; nil otherwise.
	RowsRetiredTag []int
}

// Lost counts messages that never verified.
func (r *Result) Lost() int {
	n := 0
	for _, v := range r.Verified {
		if !v {
			n++
		}
	}
	return n
}

// Transfer runs the full data phase: tags encode, the air collides, the
// reader decodes. messages[i] is tag i's payload; ch provides the taps
// and noise floor (the reader learned the taps during identification).
// noiseSrc drives channel noise; decodeSrc drives the decoder's random
// initializations. The two are separate so tests can replay one while
// varying the other.
func Transfer(cfg Config, messages []bits.Vector, ch *channel.Model, noiseSrc, decodeSrc *prng.Source) (*Result, error) {
	return TransferEstimated(cfg, messages, ch, ch, noiseSrc, decodeSrc)
}

// TransferEstimated is Transfer with the reader's channel knowledge
// decoupled from the physical channel: air synthesizes the received
// symbols, decoder supplies the taps the belief-propagation decoder
// works with. Passing the stage-C channel estimates as decoder exercises
// the realistic condition that H is only approximately known — the
// rateless loop absorbs the estimation error by collecting more
// collisions.
func TransferEstimated(cfg Config, messages []bits.Vector, air, decoder *channel.Model, noiseSrc, decodeSrc *prng.Source) (*Result, error) {
	roster, err := staticRoster(cfg.Seeds, messages)
	if err != nil {
		return nil, err
	}
	if air.K() != len(roster) || decoder.K() != len(roster) {
		return nil, fmt.Errorf("ratedapt: air has %d taps, decoder %d, for %d tags", air.K(), decoder.K(), len(roster))
	}
	if len(roster) == 0 {
		return &Result{}, nil
	}
	res, err := runRound(cfg, roster, channel.NewStatic(decoder), decodeSrc,
		processAir(channel.NewStatic(air), noiseSrc, cfg.Scratch))
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// staticRoster turns a static transfer's seeds and messages into the
// event-free roster the slot loop runs on: every tag present from slot 1
// to the end of the round.
func staticRoster(seeds []uint64, messages []bits.Vector) ([]RosterTag, error) {
	if len(messages) != len(seeds) {
		return nil, fmt.Errorf("ratedapt: %d messages for %d seeds", len(messages), len(seeds))
	}
	roster := make([]RosterTag, len(seeds))
	for i, seed := range seeds {
		roster[i] = RosterTag{Seed: seed, Message: messages[i]}
	}
	return roster, nil
}

// SynthAir is sparseAir for external drivers: the engine package's wire
// replay client plays the tag/air side of a streaming session (the
// daemon only ever sees observations, like a real reader) and must
// synthesize collision slots byte-identically to the in-process air.
// Same contract as sparseAir; bitIdx is unused (nil is fine).
func SynthAir(m *channel.Model, frames []bits.Vector, active []bool, obs []complex128,
	activeIdx, bitIdx []int, tagPow []float64, noise *prng.Source) {
	sparseAir(m, frames, active, obs, activeIdx, tagPow, noise)
}

// ParticipationDensity exposes participationDensity for stream drivers:
// a wire client reconstructing the participation row must re-tune the
// density to the live population with exactly the reader's rule.
func ParticipationDensity(explicit float64, n int) float64 {
	return participationDensity(explicit, n)
}

// sparseAir synthesizes one collision slot of received symbols:
// obs[p] = Σ_{i active} b_i[p]·h_i plus one AWGN sample whenever the
// noise power N₀ + AGCNoiseFraction·Σ_{i active} b_i[p]·|h_i|² is
// positive, with no branch on a random bit. A block of positions at a
// time (the power sums live on the stack), each collider walks its
// frame and adds b·h_i and b·|h_i|² to every position. A clear bit adds
// a zero, which is exact: a sum started at +0 is never −0, so each
// position gets the bits of a sum over its set-bit colliders alone, in
// ascending tag order, down to the sign of a zero. activeIdx is
// caller-owned staging of at least len(active) entries; tagPow[i] must
// hold |m.Taps[i]|² for every tag that can be active.
func sparseAir(m *channel.Model, frames []bits.Vector, active []bool, obs []complex128,
	activeIdx []int, tagPow []float64, noise *prng.Source) {

	na := 0
	for i, on := range active {
		activeIdx[na] = i
		na += bits.Index(on)
	}
	var powBlock [64]float64
	for p0 := 0; p0 < len(obs); p0 += len(powBlock) {
		ys := obs[p0:min(p0+len(powBlock), len(obs))]
		pows := powBlock[:len(ys)]
		clear(ys)
		clear(pows)
		for _, i := range activeIdx[:na] {
			h, pw := m.Taps[i], tagPow[i]
			for p, b := range frames[i][p0 : p0+len(ys)] {
				s := float64(bits.Index(b))
				ys[p] += complex(s*real(h), s*imag(h))
				pows[p] += s * pw
			}
		}
		for p, pw := range pows {
			if np := m.NoisePower + m.AGCNoiseFraction*pw; np > 0 {
				ys[p] += noise.ComplexNorm() * complex(math.Sqrt(np), 0)
			}
		}
	}
}

// refineTaps re-fits the channel taps by least squares against the
// current bit estimates: every (slot, position) pair contributes one
// linear equation y = Σ_i d_li·b̂_ip·h_i. The system is heavily
// overdetermined (L·P equations for K unknowns), so occasional bit-
// estimate errors wash out. The result is damped 50/50 against the
// previous taps; on any numerical failure the old taps are kept.
func refineTaps(d *bits.Matrix, ys [][]complex128, estimates []bits.Vector, old []complex128, sc *scratch.Scratch) ([]complex128, bool) {
	k := d.Cols
	if k == 0 || d.Rows == 0 || len(estimates) != k {
		return nil, false
	}
	frameLen := len(estimates[0])
	// Cap the system size: stride over positions so the row count stays
	// near 64·K — ample for a K-unknown fit.
	maxRows := 64 * k
	total := d.Rows * frameLen
	stride := 1
	if total > maxRows {
		stride = total / maxRows
	}
	// At most one equation per stride step survives; reserving that
	// bound up front keeps the equation assembly inside the caller's
	// slot-scoped arena region.
	maxEq := total/stride + 1
	rowsData := sc.Complex(maxEq * k)[:0]
	rhs := dsp.Vec(sc.Complex(maxEq))[:0]
	row := sc.Complex(k)
	idx := 0
	for l := 0; l < d.Rows; l++ {
		for p := 0; p < frameLen; p++ {
			idx++
			if idx%stride != 0 {
				continue
			}
			clear(row)
			any := false
			for i := 0; i < k; i++ {
				if d.At(l, i) && estimates[i][p] {
					row[i] = 1
					any = true
				}
			}
			if !any {
				continue
			}
			rowsData = append(rowsData, row...)
			rhs = append(rhs, ys[p][l])
		}
	}
	n := len(rhs)
	if n < 2*k {
		return nil, false
	}
	a := &dsp.Mat{Rows: n, Cols: k, Data: rowsData}
	sol, err := dsp.LeastSquaresScratch(a, rhs, sc)
	if err != nil {
		return nil, false
	}
	refined := make([]complex128, k)
	for i := range refined {
		refined[i] = 0.5*old[i] + 0.5*sol[i]
	}
	return refined, true
}

// Payloads extracts the verified payloads (CRC stripped); unverified
// entries are nil.
func (r *Result) Payloads(kind bits.CRCKind) []bits.Vector {
	out := make([]bits.Vector, len(r.Frames))
	for i, f := range r.Frames {
		if r.Verified[i] {
			out[i] = bits.PayloadOf(f, kind)
		}
	}
	return out
}

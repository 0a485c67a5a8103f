package bp

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// driveGateSessions runs random sessions shaped like
// TestSessionGramRestartMatchesRowRestart's (noisy observations of
// fixed messages, a drifting mover, periodic retaps, half the tags
// locked at slot 10, a global Retire and RetireTag) and calls after
// with the session and the decode's locked set after every DecodeSlot,
// before the next mutation. It returns the number of Gram and row
// slots decoded.
func driveGateSessions(t *testing.T, trials int, seed uint64, after func(s *Session, locked []bool)) (gramSlots, rowSlots int) {
	t.Helper()
	const (
		frameLen = 5
		restarts = 2
		slots    = 36
		window   = 12
	)
	for trial := 0; trial < trials; trial++ {
		src := prng.NewSource(seed + uint64(trial))
		k := 4 + src.IntN(7)
		q := 0.15 + 0.35*src.Float64()
		taps := randomTaps(k, src)
		msgs := randomEstimates(k, frameLen, src)
		est := randomEstimates(k, frameLen, src)
		nLock := k / 2
		for i := 0; i < nLock; i++ {
			est[i] = msgs[i]
		}
		mover := k - 1

		s := NewSession()
		s.Begin(k, frameLen, slots+1, restarts, taps)
		s.TrackTagDrift(true)
		s.InitPositions(est)
		locked := make([]bool, k)
		minMargin := make([]float64, k)
		ambiguous := make([]bool, k)
		cur := append([]complex128(nil), taps...)
		for slot := 1; slot <= slots; slot++ {
			cur[mover] *= complex(0.995, 0.02)
			if slot%9 == 0 {
				for i := 0; i < k; i += 2 {
					cur[i] *= complex(0.999, 0.01)
				}
			}
			retapAll(s, cur)
			row := make(bits.Vector, k)
			for i := range row {
				row[i] = src.Bernoulli(q)
			}
			obs := make([]complex128, frameLen)
			for p := range obs {
				y := 0.2 * src.ComplexNorm()
				for i, on := range row {
					if on && msgs[i][p] {
						y += cur[i]
					}
				}
				obs[p] = y
			}
			appendSlot(s, row, obs)
			s.DecodeSlot(slot, locked, 0x6A3, minMargin, ambiguous)
			if s.gramOn {
				gramSlots++
			} else {
				rowSlots++
			}
			after(s, locked)
			if t.Failed() {
				t.Fatalf("trial %d k %d: failed at slot %d", trial, k, slot)
			}

			switch {
			case slot == 10:
				for i := 0; i < nLock; i++ {
					locked[i] = true
				}
			case slot > window && slot%3 == 0:
				s.Retire(slot - window)
			}
			if slot > window/2 {
				s.RetireTag(mover, slot-window/2)
			}
		}
	}
	return gramSlots, rowSlots
}

// checkGateGramMatchesRows scores ConditionalMargin on a Gram slot both
// ways at every position, for every unlocked tag with observations:
// in Gram space (conditionalMarginGram), then on the row path
// (conditionalMarginRows) on the position's rebuilt row state
// (rebuildRowState).
// Each tag is scored twice: with the decode's locked set, and with one
// more unlocked tag pinned through locked, as when the gate loop locked
// it earlier in the same slot. The two margins must agree within 1e-9
// relative and end on the same bits; the Gram descent must end with
// tag i flipped and every pinned bit unchanged. Returns the number of
// (position, tag, pin set) triples compared.
func checkGateGramMatchesRows(t *testing.T, s *Session, locked []bool) int {
	t.Helper()
	g := &s.g
	k := s.k
	extra := make([]bool, k)
	var tags []int
	for _, i := range g.activeTags {
		if g.Degree(i) > 0 {
			tags = append(tags, i)
		}
	}
	// pinSet returns the locked set of score n of tag i: the decode's
	// (n = 0), or the decode's plus the next scored tag after i.
	pinSet := func(x, n int) []bool {
		copy(extra, locked)
		if n == 1 {
			extra[tags[(x+1)%len(tags)]] = true
		}
		extra[tags[x]] = false
		return extra
	}
	gramM := make([]float64, 2*len(tags))
	gramB := make([]bool, 2*len(tags)*k)
	compared := 0
	for p := 0; p < s.frameLen; p++ {
		pb := s.PosBits(p)
		for x, i := range tags {
			for n := 0; n < 2; n++ {
				pins := pinSet(x, n)
				den := g.tapPower[i] * float64(g.Degree(i))
				gramM[2*x+n] = s.conditionalMarginGram(p, i, pins) / den
				b := s.cond.allBits[:k]
				if b[i] == pb[i] {
					t.Errorf("position %d tag %d: Gram gate ended with the forced bit back at %v", p, i, pb[i])
					return 0
				}
				for j, pin := range pins {
					if pin && b[j] != pb[j] {
						t.Errorf("position %d tag %d: Gram gate flipped pinned tag %d", p, i, j)
						return 0
					}
				}
				copy(gramB[(2*x+n)*k:], b)
			}
		}
		rebuildRowState(s, p)
		for x, i := range tags {
			for n := 0; n < 2; n++ {
				pins := pinSet(x, n)
				den := g.tapPower[i] * float64(g.Degree(i))
				rowM := s.conditionalMarginRows(p, i, pins) / den
				if gm := gramM[2*x+n]; !closeTo(gm, rowM, 1e-9) {
					t.Errorf("position %d tag %d pin set %d: Gram margin %v, row margin %v", p, i, n, gm, rowM)
					return 0
				}
				rb := s.cond.allBits[:k]
				for _, j := range g.activeTags {
					if gb := gramB[(2*x+n)*k+j]; gb != rb[j] {
						t.Errorf("position %d tag %d pin set %d: tag %d ended at %v in Gram space, %v on rows", p, i, n, j, gb, rb[j])
						return 0
					}
				}
				compared++
			}
		}
	}
	return compared
}

// TestSessionConditionalMarginGramMatchesRows pins the acceptance
// gate's Gram path against its row path (checkGateGramMatchesRows)
// after every Gram slot of random sessions.
func TestSessionConditionalMarginGramMatchesRows(t *testing.T) {
	compared := 0
	gramSlots, rowSlots := driveGateSessions(t, 16, 0x6A70, func(s *Session, locked []bool) {
		if s.gramOn {
			compared += checkGateGramMatchesRows(t, s, locked)
		}
	})
	if gramSlots == 0 || compared == 0 {
		t.Fatalf("%d Gram slots, %d gate scores compared, want both > 0", gramSlots, compared)
	}
	t.Logf("%d gate scores compared on %d Gram slots (%d row slots)", compared, gramSlots, rowSlots)
}

// TestSessionConditionalMarginGramLeavesState pins that the gate reads
// a Gram slot without writing the session: after every Gram slot's
// DecodeSlot, scoring every (position, unlocked tag) pair through
// ConditionalMargin leaves the row-state flag, posBits, every
// position's gains and the decode-cost counters bitwise as they were,
// and scoring them again returns bitwise the same margins. It also pins
// the one flag's rule: a Gram slot leaves the row state not current,
// and a row slot leaves it current, including a row slot right after a
// Gram slot, which rebuilds every position.
func TestSessionConditionalMarginGramLeavesState(t *testing.T) {
	var scored, caughtUp int
	afterGram := false
	var last *Session
	gramSlots, _ := driveGateSessions(t, 12, 0x6A80, func(s *Session, locked []bool) {
		if s != last {
			last, afterGram = s, false
		}
		if !s.gramOn {
			if !s.stateValid {
				t.Errorf("row state not current after a row slot")
			}
			if afterGram {
				caughtUp++
			}
			afterGram = false
			return
		}
		if s.stateValid {
			t.Errorf("row state marked current after a Gram slot")
		}
		afterGram = true
		s.TakeDecodeCost()
		bitsWas := append([]bool(nil), s.posBits[:s.frameLen*s.kStride]...)
		gainWas := make([][]float64, s.frameLen)
		for p := range gainWas {
			gainWas[p] = append([]float64(nil), s.states[p].gain...)
		}
		var first []float64
		for round := 0; round < 2; round++ {
			x := 0
			for p := 0; p < s.frameLen; p++ {
				for i := 0; i < s.k; i++ {
					if locked[i] {
						continue
					}
					m := s.ConditionalMargin(p, i, locked)
					if round == 0 {
						first = append(first, m)
						scored++
					} else if math.Float64bits(m) != math.Float64bits(first[x]) {
						t.Errorf("position %d tag %d: margin %v, then %v", p, i, first[x], m)
						return
					}
					x++
				}
			}
		}
		if s.stateValid {
			t.Errorf("the gate marked the row state current")
		}
		for p, gains := range gainWas {
			for i, gv := range gains {
				if math.Float64bits(s.states[p].gain[i]) != math.Float64bits(gv) {
					t.Errorf("position %d tag %d: gain %v after the gate, %v before", p, i, s.states[p].gain[i], gv)
				}
			}
		}
		for x, b := range bitsWas {
			if s.posBits[x] != b {
				t.Errorf("posBits[%d] %v after the gate, %v before", x, s.posBits[x], b)
			}
		}
		if c := s.TakeDecodeCost(); c != (DecodeCost{}) {
			t.Errorf("gate added decode cost %+v", c)
		}
	})
	if gramSlots == 0 || scored == 0 || caughtUp == 0 {
		t.Fatalf("%d Gram slots, %d margins scored, %d row slots right after a Gram slot; want all > 0", gramSlots, scored, caughtUp)
	}
	t.Logf("%d margins scored twice on %d Gram slots, %d row slots right after a Gram slot", scored, gramSlots, caughtUp)
}

// TestSessionObserversNeverChangeDecode pins that PosError and
// ConditionalMargin are pure reads. Twin sessions decode the same
// script, which mixes Gram and row slots with retaps, CRC locks, Retire
// and RetireTag. After every slot one twin calls PosError at every
// position and ConditionalMargin at every (position, unlocked tag); the
// other never does. Every slot's margins, ambiguity flags, per-position
// bits and DecodeCost must be bitwise equal between the twins. The
// script must reach a row slot right after a Gram slot and a row slot
// that continues from a current row state.
func TestSessionObserversNeverChangeDecode(t *testing.T) {
	const (
		frameLen = 5
		restarts = 2
		slots    = 48
		window   = 16
		base     = 0x0B5
	)
	var gramSlots, rowSlots, afterGram, continued, observed int
	for trial := 0; trial < 10; trial++ {
		src := prng.NewSource(0x0B50 + uint64(trial))
		k := 5 + src.IntN(6)
		taps := randomTaps(k, src)
		msgs := randomEstimates(k, frameLen, src)
		est := randomEstimates(k, frameLen, src)
		var twins [2]*Session
		var margins [2][]float64
		var amb [2][]bool
		for x := range twins {
			s := NewSession()
			s.Begin(k, frameLen, slots, restarts, taps)
			s.TrackTagDrift(true)
			s.InitPositions(est)
			twins[x] = s
			margins[x] = make([]float64, k)
			amb[x] = make([]bool, k)
		}
		obsv, twin := twins[0], twins[1]
		locked := make([]bool, k)
		cur := append([]complex128(nil), taps...)
		prevGram := false
		for slot := 1; slot <= slots; slot++ {
			if slot%7 == 0 {
				cur[src.IntN(k)] *= complex(0.99, 0.03)
				for _, s := range twins {
					retapAll(s, cur)
				}
			}
			q := 0.15 + 0.5*src.Float64()
			row := make(bits.Vector, k)
			for i := range row {
				row[i] = src.Bernoulli(q)
			}
			obs := make([]complex128, frameLen)
			for p := range obs {
				y := 0.3 * src.ComplexNorm()
				for i, on := range row {
					if on && msgs[i][p] {
						y += cur[i]
					}
				}
				obs[p] = y
			}
			valid := obsv.stateValid
			for x, s := range twins {
				appendSlot(s, row, obs)
				s.DecodeSlot(slot, locked, base, margins[x], amb[x])
			}
			for i := 0; i < k; i++ {
				if math.Float64bits(margins[0][i]) != math.Float64bits(margins[1][i]) || amb[0][i] != amb[1][i] {
					t.Fatalf("trial %d slot %d tag %d: observed twin (%v, %v), unobserved (%v, %v)", trial, slot, i, margins[0][i], amb[0][i], margins[1][i], amb[1][i])
				}
			}
			for p := 0; p < frameLen; p++ {
				for i, b := range obsv.PosBits(p) {
					if b != twin.PosBits(p)[i] {
						t.Fatalf("trial %d slot %d: position %d tag %d bit differs between the twins", trial, slot, p, i)
					}
				}
			}
			if a, b := obsv.TakeDecodeCost(), twin.TakeDecodeCost(); a != b {
				t.Fatalf("trial %d slot %d: observed twin's decode cost %+v, unobserved %+v", trial, slot, a, b)
			}
			if obsv.gramOn {
				gramSlots++
			} else {
				rowSlots++
				if prevGram {
					afterGram++
				}
				if valid {
					continued++
				}
			}
			prevGram = obsv.gramOn

			for p := 0; p < frameLen; p++ {
				obsv.PosError(p)
				for i := 0; i < k; i++ {
					if !locked[i] {
						obsv.ConditionalMargin(p, i, locked)
						observed++
					}
				}
			}

			switch {
			case slot == 12:
				for i := 0; i < k/3; i++ {
					locked[i] = true
				}
			case slot > window && slot%4 == 0:
				for _, s := range twins {
					s.Retire(slot - window)
				}
			}
			if slot > 8 && slot%5 == 0 {
				tag := src.IntN(k)
				for _, s := range twins {
					s.RetireTag(tag, slot-4)
				}
			}
		}
	}
	if gramSlots == 0 || afterGram == 0 || continued == 0 {
		t.Fatalf("%d Gram slots, %d row slots right after a Gram slot, %d row slots continuing a current row state; want all > 0", gramSlots, afterGram, continued)
	}
	t.Logf("%d Gram and %d row slots (%d right after a Gram slot, %d continuing), %d gate scores observed", gramSlots, rowSlots, afterGram, continued, observed)
}

// refConditionalMarginGram is conditionalMarginGram as it was before it
// took its base error from the decode: it recomputes B and the base
// gramError at the position's bits for every call.
func refConditionalMarginGram(s *Session, p, i int, locked []bool) float64 {
	ws := &s.cond
	b := bits.Vector(ws.allBits[:s.k])
	copy(b, s.PosBits(p))
	ws.gramInput(s, p, b)
	base := ws.gramError(s, b)
	pins := ws.gPins[:0]
	for x, j := range s.g.activeTags {
		if j == i || (locked != nil && locked[j]) {
			pins = append(pins, x)
		}
	}
	b[i] = !b[i]
	ws.gramDescend(s, b, 64*(s.g.K+1)*(s.g.L+1), pins)
	return ws.gramError(s, b) - base
}

// TestSessionGateBaseIsDecodeError pins that the Gram gate's base error,
// taken from the decode's adopted pass (gramErr), is the gramError the
// gate used to recompute at the position's bits, bit for bit, and that
// every gate margin equals refConditionalMarginGram's bitwise: with the
// decode's locked set and with one more unlocked tag pinned, after
// every Gram slot of random sessions.
func TestSessionGateBaseIsDecodeError(t *testing.T) {
	compared := 0
	gramSlots, _ := driveGateSessions(t, 16, 0x6A71, func(s *Session, locked []bool) {
		if !s.gramOn {
			return
		}
		extra := make([]bool, s.k)
		for p := 0; p < s.frameLen; p++ {
			b := bits.Vector(append([]bool(nil), s.PosBits(p)...))
			s.cond.gramInput(s, p, b)
			if got, want := s.gramErr[p], s.cond.gramError(s, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("position %d: decode's error %v, gramError at the position's bits %v", p, got, want)
				return
			}
			act := s.g.activeTags
			for x, i := range act {
				if s.g.Degree(i) == 0 {
					continue
				}
				copy(extra, locked)
				extra[act[(x+1)%len(act)]] = true
				extra[i] = false
				for _, pins := range [][]bool{locked, extra} {
					got := s.conditionalMarginGram(p, i, pins)
					want := refConditionalMarginGram(s, p, i, pins)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("position %d tag %d: gate error difference %v, reference %v", p, i, got, want)
						return
					}
					compared++
				}
			}
		}
	})
	if gramSlots == 0 || compared == 0 {
		t.Fatalf("%d Gram slots, %d gate scores compared, want both > 0", gramSlots, compared)
	}
	t.Logf("%d gate scores compared on %d Gram slots", compared, gramSlots)
}

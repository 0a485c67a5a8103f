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
		s.Begin(k, frameLen, slots+1, 1, restarts, taps)
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
			s.RetapAll(cur)
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
			s.AppendSlot(row, obs)
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
		s.Close()
	}
	return gramSlots, rowSlots
}

// checkGateGramMatchesRows scores ConditionalMargin on a Gram slot both
// ways at every position, for every unlocked tag with observations:
// in Gram space (conditionalMarginGram), then on the row path
// (conditionalMarginRows) after materializing the position's residual.
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
		s.materialize(p)
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
// ConditionalMargin leaves every resStale flag, posBits, every
// position's gains and the decode-cost counters bitwise as they were,
// and scoring them again returns bitwise the same margins. It also pins
// the invariant that lets the row path skip materialize: after a row
// slot's DecodeSlot no position's residual is stale, including the
// positions a Gram slot just before left stale.
func TestSessionConditionalMarginGramLeavesState(t *testing.T) {
	var scored, stale, caughtUp int
	staleBefore := false
	var last *Session
	gramSlots, _ := driveGateSessions(t, 12, 0x6A80, func(s *Session, locked []bool) {
		if s != last {
			last, staleBefore = s, false
		}
		if !s.gramOn {
			for p, st := range s.resStale[:s.frameLen] {
				if st {
					t.Errorf("position %d: residual stale after a row slot", p)
				}
			}
			if staleBefore {
				caughtUp++
			}
			staleBefore = false
			return
		}
		s.TakeDecodeCost()
		staleWas := append([]bool(nil), s.resStale[:s.frameLen]...)
		bitsWas := append([]bool(nil), s.posBits[:s.frameLen*s.k]...)
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
		for p, was := range staleWas {
			if s.resStale[p] != was {
				t.Errorf("position %d: resStale %v after the gate, %v before", p, s.resStale[p], was)
			}
			if was {
				stale++
				staleBefore = true
			}
			for i, gv := range gainWas[p] {
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
	if gramSlots == 0 || scored == 0 || stale == 0 || caughtUp == 0 {
		t.Fatalf("%d Gram slots, %d margins scored, %d stale residuals seen, %d row slots after them; want all > 0", gramSlots, scored, stale, caughtUp)
	}
	t.Logf("%d margins scored twice on %d Gram slots, %d stale residuals left stale, %d row slots caught them up", scored, gramSlots, stale, caughtUp)
}

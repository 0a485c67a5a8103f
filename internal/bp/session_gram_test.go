package bp

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// TestSessionGramRestartMatchesRowRestart pins the Gram path's restart
// (prepareGram, gramProject, gramDescend, gramError) against the row
// path's (buildFrom + descend + normSqActive). Random sessions in hard
// and soft mode run through locks, a global Retire and RetireTag
// (SoftRetireTag in soft mode); after every decoded slot, every
// position descends from a batch of random restart inits both ways.
// The two must end on the same bits after the same number of flips,
// and each pass's error minus the position's incumbent error must
// agree to 1e-9 relative (gramError drops the position's constant
// E0). It also pins that the shape rule picks each path at least once.
func TestSessionGramRestartMatchesRowRestart(t *testing.T) {
	const (
		frameLen = 5
		restarts = 2
		slots    = 36
		window   = 12
		inits    = 6
		base     = 0x6A3
	)
	var gramSlots, rowSlots [2]int // by mode: hard, soft
	var compared int
	for mode, soft := range []bool{false, true} {
		for trial := 0; trial < 12; trial++ {
			src := prng.NewSource(0x6A30 + uint64(100*mode+trial))
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
			initSrc := prng.NewSource(0x1417 + uint64(trial))
			for slot := 1; slot <= slots; slot++ {
				cur[mover] *= complex(0.995, 0.02)
				if slot%9 == 0 {
					// Move half the taps: RetapAll falls back to a rebuild.
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
				s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
				if s.gramOn {
					gramSlots[mode]++
				} else {
					rowSlots[mode]++
				}
				compared += checkGramMatchesRow(t, s, initSrc, inits)
				if t.Failed() {
					t.Fatalf("soft=%v trial %d k %d: diverged at slot %d", soft, trial, k, slot)
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
					if soft {
						s.SoftRetireTag(mover, slot-window/2)
					} else {
						s.RetireTag(mover, slot-window/2)
					}
				}
			}
			s.Close()
		}
	}
	for mode, name := range []string{"hard", "soft"} {
		if gramSlots[mode] == 0 || rowSlots[mode] == 0 {
			t.Fatalf("%s mode: shape rule picked the Gram path on %d slots and the row path on %d, want both", name, gramSlots[mode], rowSlots[mode])
		}
	}
	t.Logf("%d restarts compared; Gram path on %v slots, row path on %v (hard, soft)", compared, gramSlots, rowSlots)
}

// checkGramMatchesRow stages the Gram constants for the graph the last
// DecodeSlot decoded (whatever the shape rule chose), then descends
// every position from n random inits on both paths and fails on any
// difference in bits or flips, or a gap over 1e-9 relative between the
// two paths' errors above the incumbent's.
// Returns the number of restarts compared.
func checkGramMatchesRow(t *testing.T, s *Session, src *prng.Source, n int) int {
	t.Helper()
	g := &s.g
	s.prepareGram()
	ws := &s.wstates[0]
	maxFlips := 64 * (g.K + 1) * (g.L + 1)
	gb := make(bits.Vector, s.k)
	rb := make(bits.Vector, s.k)
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		cur := bits.Vector(s.PosBits(p))
		ws.gramProject(s, st, cur)
		gInc, rInc := ws.gramError(s, cur), st.normSqActive(g)
		for r := 0; r < n; r++ {
			copy(gb, s.PosBits(p))
			randomBitsInto(src, gb, g.activeTags)
			copy(rb, gb)
			gf := ws.gramDescend(s, gb, maxFlips)
			ge := ws.gramError(s, gb) - gInc
			rst := &ws.rst
			rst.residual = rst.residual[:g.L]
			rst.buildFrom(g, st, cur, rb)
			rf := rst.descend(g, rb, s.curLocked, s.eps)
			re := rst.normSqActive(g) - rInc
			for _, i := range g.activeTags {
				if gb[i] != rb[i] {
					t.Errorf("position %d init %d: Gram descent ended with tag %d = %v, row descent %v", p, r, i, gb[i], rb[i])
					return 0
				}
			}
			if gf != rf {
				t.Errorf("position %d init %d: Gram descent took %d flips, row descent %d", p, r, gf, rf)
				return 0
			}
			if !closeTo(ge, re, 1e-9) {
				t.Errorf("position %d init %d: Gram error %v, row error %v above the incumbent's", p, r, ge, re)
				return 0
			}
		}
	}
	return s.frameLen * n
}

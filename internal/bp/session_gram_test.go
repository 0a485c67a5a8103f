package bp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// TestSessionGramRestartMatchesRowRestart pins the Gram path's restart
// (prepareGram, gramInput, gramDescend, gramError) against the row
// path's (buildFrom + descend + normSqActive), with the position's row
// state rebuilt for the row side after a Gram slot (rebuildRowState). Random sessions run
// through locks, a global Retire and RetireTag; after every decoded
// slot, every position descends from a batch of random restart inits
// both ways.
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
	var gramSlots, rowSlots, compared int
	for trial := 0; trial < 12; trial++ {
		src := prng.NewSource(0x6A30 + uint64(trial))
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
		initSrc := prng.NewSource(0x1417 + uint64(trial))
		for slot := 1; slot <= slots; slot++ {
			cur[mover] *= complex(0.995, 0.02)
			if slot%9 == 0 {
				// Move half the taps: RetapTags falls back to a rebuild.
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
			s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
			if s.gramOn {
				gramSlots++
			} else {
				rowSlots++
			}
			compared += checkGramMatchesRow(t, s, initSrc, inits)
			if t.Failed() {
				t.Fatalf("trial %d k %d: diverged at slot %d", trial, k, slot)
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
	if gramSlots == 0 || rowSlots == 0 {
		t.Fatalf("shape rule picked the Gram path on %d slots and the row path on %d, want both", gramSlots, rowSlots)
	}
	t.Logf("%d restarts compared; Gram path on %d slots, row path on %d", compared, gramSlots, rowSlots)
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
	ws := &s.ws
	maxFlips := 64 * (g.K + 1) * (g.L + 1)
	gb := make(bits.Vector, s.k)
	rb := make(bits.Vector, s.k)
	for p := 0; p < s.frameLen; p++ {
		rebuildRowState(s, p)
		st := &s.states[p]
		cur := bits.Vector(s.PosBits(p))
		ws.gramInput(s, p, cur)
		gInc, rInc := ws.gramError(s, cur), st.normSqActive(g)
		for r := 0; r < n; r++ {
			copy(gb, s.PosBits(p))
			randomBitsInto(src, gb, g.activeTags)
			copy(rb, gb)
			gf := ws.gramDescend(s, gb, maxFlips, nil)
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

// checkMatchedFilter folds the pending rows into s's matched-filter
// state and fails unless it matches a from-scratch recount over the
// live rows: every position's mf within 1e-9 relative, and the
// co-occurrence counts exactly. A tag with no live rows must hold an
// exact zero,
// as its row-path S-sum does: rounding dust there would read as a gain
// against the absolute flip threshold. Entries past K within the stride
// must be zero, so a Grow within the cap finds its new rows and columns
// clean.
func checkMatchedFilter(t *testing.T, s *Session, what string) {
	t.Helper()
	g := &s.g
	s.foldRows()
	k, stride := s.k, s.kStride
	if stride < k || len(s.cooc) < stride*stride {
		t.Fatalf("%s: Gram stride %d over %d entries for K %d", what, stride, len(s.cooc), k)
	}
	want := make([]int32, stride*stride)
	for r := g.retired; r < g.L; r++ {
		for _, a := range g.rowCols[r] {
			for _, b := range g.rowCols[r] {
				want[a*stride+b]++
			}
		}
	}
	for x, w := range want {
		if got := s.cooc[x]; got != w {
			t.Fatalf("%s: Gram entry (%d, %d) = %v, recount %v", what, x/stride, x%stride, got, w)
		}
	}
	for p := 0; p < s.frameLen; p++ {
		for i := k; i < stride; i++ {
			if got := s.mf[p*stride+i]; got != 0 {
				t.Fatalf("%s: position %d matched-filter entry %d past K = %d holds %v", what, p, i, k, got)
			}
		}
		for i := 0; i < k; i++ {
			var w complex128
			for _, r := range g.colRows[i] {
				w += s.ys[p][r]
			}
			got := s.mf[p*stride+i]
			if len(g.colRows[i]) == 0 && got != 0 {
				t.Fatalf("%s: position %d rowless tag %d matched-filter output %v, want exact 0", what, p, i, got)
			}
			if !closeTo(real(got), real(w), 1e-9) || !closeTo(imag(got), imag(w), 1e-9) {
				t.Fatalf("%s: position %d tag %d matched-filter output %v, recount %v", what, p, i, got, w)
			}
		}
	}
}

// TestSessionMatchedFilterState drives sessions through random
// interleavings of AppendColliders, DecodeSlot with CRC locks, Retire,
// RetireTag, Grow (within and past
// the reserved tag cap) and RetapTags, and after most steps checks the
// matched-filter state against a from-scratch recount
// (checkMatchedFilter). Skipped checks leave rows unfolded, so the
// mutations also run on rows the state has not absorbed yet.
func TestSessionMatchedFilterState(t *testing.T) {
	const (
		frameLen = 4
		maxSlots = 64
		steps    = 160
	)
	var checks, grownPastCap int
	for trial := 0; trial < 6; trial++ {
		src := prng.NewSource(0x3F00 + uint64(trial))
		k0 := 3 + src.IntN(5)
		taps := randomTaps(k0, src)
		s := NewSession()
		s.Reserve(k0+2, frameLen, maxSlots, 2)
		s.Begin(k0, frameLen, maxSlots, 2, taps)
		s.TrackTagDrift(true)
		s.InitPositions(randomEstimates(k0, frameLen, src))
		drv := &sessionDriver{k: k0, frameLen: frameLen, src: src.Fork(1)}
		locked := make([]bool, k0)
		for step := 0; step < steps; step++ {
			g := &s.g
			k := s.k
			switch op := src.IntN(10); {
			case op < 4 && g.L < maxSlots:
				row, obs := drv.slot()
				appendSlot(s, row, obs)
				s.DecodeSlot(g.L, locked, 0x3F0, make([]float64, k), make([]bool, k))
			case op == 4 && g.L > 0:
				s.Retire(g.retired + 1 + src.IntN(3))
			case op == 5 && g.L > 0:
				s.RetireTag(src.IntN(k), 1+src.IntN(g.L))
			case op == 7 && k < 12:
				n := 1 + src.IntN(2)
				if k+n > s.kStride {
					grownPastCap++
				}
				s.Grow(randomTaps(n, src), randomEstimates(n, frameLen, src))
				drv.k = s.k
				locked = append(locked, make([]bool, n)...)
			case op == 8:
				next := append([]complex128(nil), g.taps...)
				next[src.IntN(k)] *= complex(0.98, 0.05)
				retapAll(s, next)
			case op == 9:
				if i := src.IntN(k); src.Bernoulli(0.3) {
					locked[i] = true
				}
			}
			if src.Bernoulli(0.6) {
				checkMatchedFilter(t, s, fmt.Sprintf("trial %d step %d", trial, step))
				checks++
			}
		}
	}
	if grownPastCap == 0 {
		t.Fatal("no Grow outgrew the reserved tag cap")
	}
	t.Logf("%d recounts checked, %d grows past the cap", checks, grownPastCap)
}

// TestSessionGramPassZeroMatchesRowPassZero pins the Gram pass 0 an
// invalid position runs on a Gram slot (gramInput + gramDescend from
// the position's bits) against the row pass 0 it replaces (a residual
// rebuild + descend). Random sessions decode through locks, retires
// and retaps; after every retap, before the decode, at
// every position both pass 0s start from the position's bits and must
// end on the same bits after the same number of flips. The problems
// are continuous random draws, so no gain ties within rounding.
func TestSessionGramPassZeroMatchesRowPassZero(t *testing.T) {
	const (
		frameLen = 5
		slots    = 40
		base     = 0x9A55
	)
	var compared, flipped int
	for trial := 0; trial < 8; trial++ {
		src := prng.NewSource(0x9A50 + uint64(trial))
		k := 5 + src.IntN(8)
		taps := randomTaps(k, src)
		rows, obss := scriptSlots(k, frameLen, slots, 0x9A51+uint64(trial))
		s := NewSession()
		s.Begin(k, frameLen, slots, 2, taps)
		s.TrackTagDrift(true)
		s.InitPositions(randomEstimates(k, frameLen, src))
		g := &s.g
		ws := &s.ws
		locked := make([]bool, k)
		cur := append([]complex128(nil), taps...)
		rb := make(bits.Vector, k)
		gb := make(bits.Vector, k)
		for slot := 1; slot <= slots; slot++ {
			cur[slot%k] *= complex(0.99, 0.04)
			retapAll(s, cur)
			appendSlot(s, rows[slot-1], obss[slot-1])
			s.prepareSlot(slot, locked, base)
			if !s.gramOn {
				s.prepareGram()
			}
			for p := 0; p < frameLen; p++ {
				copy(rb, s.PosBits(p))
				copy(gb, rb)
				rst := newTestState(k, g.L)
				s.rebuildPosition(p, rst, rb, locked)
				rf := rst.descend(g, rb, locked, s.eps)
				ws.gramInput(s, p, gb)
				gf := ws.gramDescend(s, gb, 64*(g.K+1)*(g.L+1), nil)
				if rf != gf {
					t.Fatalf("trial %d slot %d position %d: row pass 0 took %d flips, Gram pass 0 %d", trial, slot, p, rf, gf)
				}
				for _, i := range g.activeTags {
					if rb[i] != gb[i] {
						t.Fatalf("trial %d slot %d position %d: pass 0s ended with tag %d = %v (row), %v (Gram)", trial, slot, p, i, rb[i], gb[i])
					}
				}
				compared++
				if rf > 0 {
					flipped++
				}
			}
			s.DecodeSlot(slot, locked, base, make([]float64, k), make([]bool, k))
			if i := src.IntN(k); slot > 5 && !locked[i] && src.Bernoulli(0.2) {
				locked[i] = true
			}
			if slot > 12 && slot%3 == 0 {
				s.Retire(slot - 12)
			}
			if slot > 6 && slot%4 == 0 {
				s.RetireTag(src.IntN(k), slot-4)
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no pass 0 flipped a bit")
	}
	t.Logf("%d pass-0 pairs compared, %d with flips", compared, flipped)
}

// TestArgmaxAboveScanOrder pins the argmax scan every Gram pass runs
// (keepMax, here through argmaxAbove): the first index of the largest
// gain strictly above eps, −1 when none is, a NaN never winning and
// signed zeros tying.
func TestArgmaxAboveScanOrder(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, c := range []struct {
		gain []float64
		eps  float64
		want int
	}{
		{nil, 0, -1},
		{[]float64{1, 3, 3, 2}, 0, 1},
		{[]float64{0.5, 0.5}, 0.5, -1},
		{[]float64{0.25, 0.5}, 0.25, 1},
		{[]float64{nan, 2, nan, 2.5, nan}, 0, 3},
		{[]float64{nan, nan}, -inf, -1},
		{[]float64{-inf, inf, inf}, 0, 1},
		{[]float64{-1, -2}, -3, 0},
		{[]float64{negZero, 0, 1e-300}, -1, 2},
		{[]float64{0, negZero}, -1, 0},
	} {
		if got := argmaxAbove(c.gain, c.eps); got != c.want {
			t.Errorf("argmaxAbove(%v, %v) = %d, want %d", c.gain, c.eps, got, c.want)
		}
	}
}

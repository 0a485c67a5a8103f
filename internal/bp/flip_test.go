package bp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// refApplyFlip is applyFlip as it was written before it took the flip
// direction from bSign: δ = ±h_i by a branch on the bit. The live kernel
// must match it bitwise wherever bSign agrees with the bits.
func refApplyFlip(st *descentState, g *Graph, b bits.Vector, locked []bool, i int) {
	delta := g.taps[i]
	if b[i] {
		delta = -delta
	}
	b[i] = !b[i]
	st.bSign[i] = -st.bSign[i]
	nd := 0
	for _, row := range g.colRows[i] {
		st.residual[row] -= delta
		for _, j := range g.rowActive[row] {
			st.sum[j] -= delta
			if !st.inDirty[j] {
				st.inDirty[j] = true
				st.dirty[nd] = j
				nd++
			}
		}
	}
	for _, j := range st.dirty[:nd] {
		st.inDirty[j] = false
		if locked != nil && locked[j] {
			continue
		}
		st.gain[j] = st.gainOf(g, j)
	}
}

// refDescend is descentState.descend over refApplyFlip.
func refDescend(st *descentState, g *Graph, b bits.Vector, locked []bool, eps float64) int {
	flips := 0
	for maxFlips := 64 * (g.K + 1) * (g.L + 1); flips < maxFlips; flips++ {
		best, bestG := -1, eps
		for _, i := range g.decodeTags {
			if gv := st.gain[i]; gv > bestG {
				bestG = gv
				best = i
			}
		}
		if best < 0 {
			break
		}
		refApplyFlip(st, g, b, locked, best)
	}
	return flips
}

// rowStateDiff describes the first bitwise difference between two row
// states and their bits — the residual on the active rows, the decode
// set's S-sums, gains, flip signs and bits — or returns "".
func rowStateDiff(g *Graph, a, b *descentState, ab, bb bits.Vector) string {
	for _, row := range g.activeRows {
		if !bitsEqual(a.residual[row], b.residual[row]) {
			return fmt.Sprintf("row %d residual %v, reference %v", row, a.residual[row], b.residual[row])
		}
	}
	for _, i := range g.decodeTags {
		switch {
		case !bitsEqual(a.sum[i], b.sum[i]):
			return fmt.Sprintf("tag %d S-sum %v, reference %v", i, a.sum[i], b.sum[i])
		case math.Float64bits(a.gain[i]) != math.Float64bits(b.gain[i]):
			return fmt.Sprintf("tag %d gain %v, reference %v", i, a.gain[i], b.gain[i])
		case a.bSign[i] != b.bSign[i] || ab[i] != bb[i]:
			return fmt.Sprintf("tag %d sign %v bit %v, reference %v %v", i, a.bSign[i], ab[i], b.bSign[i], bb[i])
		}
	}
	return ""
}

// rowDescendDiff builds a restart at the active bits r from position p's
// row state (buildFrom) into two states and descends one with descend
// and the other with refDescend; it describes the first difference in
// flips, bits or state, or returns "".
func rowDescendDiff(s *Session, p int, r bits.Vector) string {
	g := &s.g
	live, ref := newTestState(s.k, g.L), newTestState(s.k, g.L)
	lb, rb := bits.Vector(append([]bool(nil), r...)), bits.Vector(append([]bool(nil), r...))
	live.buildFrom(g, &s.states[p], s.PosBits(p), lb)
	ref.buildFrom(g, &s.states[p], s.PosBits(p), rb)
	lf, rf := live.descend(g, lb, s.curLocked, s.eps), refDescend(ref, g, rb, s.curLocked, s.eps)
	if lf != rf {
		return fmt.Sprintf("%d flips, reference %d", lf, rf)
	}
	return rowStateDiff(g, live, ref, lb, rb)
}

// rowMarginDiff runs conditionalMarginRows(p, i) and its reference
// re-descent over refApplyFlip and refDescend from a copy of the same
// position state, and describes the first difference in the returned
// error difference, the gate workspace's bits or its state, or returns
// "". With corrupt set, both start from the position's flip sign of tag
// i negated, so the sign disagrees with the bit.
func rowMarginDiff(s *Session, p, i int, corrupt bool) string {
	g := &s.g
	st := &s.states[p]
	if corrupt {
		st.bSign[i] = -st.bSign[i]
		defer func() { st.bSign[i] = -st.bSign[i] }()
	}
	pin := append([]bool(nil), s.curLocked...)
	pin[i] = true
	ref := newTestState(s.k, g.L)
	ref.copyActiveFrom(g, st)
	rb := bits.Vector(append([]bool(nil), s.PosBits(p)...))
	base := st.normSqActive(g)
	refApplyFlip(ref, g, rb, pin, i)
	ref.lockTag(i)
	refDescend(ref, g, rb, pin, s.eps)
	want := ref.normSqActive(g) - base

	got := s.conditionalMarginRows(p, i, s.curLocked)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("error difference %v, reference %v", got, want)
	}
	return rowStateDiff(g, &s.cond.rst, ref, s.cond.allBits[:s.k], rb)
}

// TestRowKernelsMatchBranchyFlip pins the row path's flip kernel
// (applyFlip, which moves the residual by h_i·bSign[i]) to a copy of the
// branchy kernel it replaced (refApplyFlip), bitwise, through descend and
// conditionalMarginRows. Random sessions of sparse rows run through locks
// and retaps; in some, every tap is real with an
// imaginary part of +0 or −0 and the observations are noise-free, so
// every residual, sum and flip carries a signed zero. After every row
// slot, at every position:
//   - a restart built at random active bits descends to the same flips,
//     bits, residual, S-sums, gains and flip signs under both kernels;
//   - for every decode-set tag, the gate's re-descent gives the same
//     error difference, bits and state under both;
//   - with the position's flip sign of that tag negated, so that it
//     disagrees with the bit, the two differ whenever the tap is nonzero:
//     the comparison sees a sign the descent contract does not keep.
func TestRowKernelsMatchBranchyFlip(t *testing.T) {
	const (
		frameLen = 3
		restarts = 2
		slots    = 24
		base     = 0xF11B
	)
	var rowSlots, descents, margins, caught, signedZeros int
	for trial := 0; trial < 12; trial++ {
		src := prng.NewSource(0xF11B0 + uint64(trial))
		k := 6 + src.IntN(7)
		zeroIm := trial%3 == 2
		taps := randomTaps(k, src)
		if zeroIm {
			for i := range taps {
				taps[i] = complex(real(taps[i])*float64(1-2*src.IntN(2)), math.Copysign(0, float64(-src.IntN(2))))
			}
		}
		msgs := randomEstimates(k, frameLen, src)
		est := randomEstimates(k, frameLen, src)
		for i := 0; i < k/3; i++ {
			est[i] = msgs[i]
		}
		s := NewSession()
		s.Begin(k, frameLen, slots+1, restarts, taps)
		s.InitPositions(est)
		locked := make([]bool, k)
		minMargin := make([]float64, k)
		ambiguous := make([]bool, k)
		r := make(bits.Vector, k)
		for slot := 1; slot <= slots; slot++ {
			if slot%6 == 0 {
				for i := range taps {
					if src.Bernoulli(0.5) {
						taps[i] = complex(real(taps[i])*1.01, imag(taps[i]))
					}
				}
				retapAll(s, taps)
			}
			row := make(bits.Vector, k)
			row[src.IntN(k)] = true
			for i := range row {
				row[i] = row[i] || src.Bernoulli(0.15)
			}
			obs := make([]complex128, frameLen)
			for p := range obs {
				var y complex128
				if !zeroIm {
					y = 0.3 * src.ComplexNorm()
				}
				for i, on := range row {
					if on && msgs[i][p] {
						y += taps[i]
					}
				}
				obs[p] = y
			}
			appendSlot(s, row, obs)
			s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
			for p := 0; p < frameLen && !s.gramOn; p++ {
				copy(r, s.PosBits(p))
				randomBitsInto(src, r, s.g.activeTags)
				if d := rowDescendDiff(s, p, r); d != "" {
					t.Fatalf("trial %d slot %d position %d descent: %s", trial, slot, p, d)
				}
				descents++
				for _, i := range s.g.decodeTags {
					if d := rowMarginDiff(s, p, i, false); d != "" {
						t.Fatalf("trial %d slot %d position %d tag %d gate re-descent: %s", trial, slot, p, i, d)
					}
					margins++
					if zeroIm && imag(s.ys[p][s.g.colRows[i][0]]) == 0 {
						signedZeros++
					}
					if s.g.taps[i] == 0 {
						continue
					}
					if rowMarginDiff(s, p, i, true) == "" {
						t.Fatalf("trial %d slot %d position %d tag %d: the twin agrees with a flip sign that disagrees with the bit", trial, slot, p, i)
					}
					caught++
				}
			}
			rowSlots += bits.Index(!s.gramOn)
			if slot%5 == 0 {
				locked[src.IntN(k/3)] = true
			}
		}
	}
	if rowSlots < 100 || descents == 0 || margins == 0 || caught == 0 || signedZeros == 0 {
		t.Fatalf("%d row slots, %d descents, %d gate re-descents, %d disagreeing signs caught, %d with signed-zero observations; want at least 100 row slots and every other count above 0", rowSlots, descents, margins, caught, signedZeros)
	}
	t.Logf("%d row slots: %d descents and %d gate re-descents matched the branchy kernel (%d with signed-zero observations); %d disagreeing signs caught", rowSlots, descents, margins, signedZeros, caught)
}

package bp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/prng"
)

// bitsEqual reports whether a and b have identical real and imaginary
// bit patterns.
func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// scratchRow is y − Σ h_i at one row of position p over the row's
// colliders i with b[i] set, from the observations and taps alone,
// subtracting in ascending tag order.
func scratchRow(s *Session, p, row int, b bits.Vector) complex128 {
	g := &s.g
	x := s.ys[p][row]
	for _, i := range g.rowCols[row] {
		if b[i] {
			x -= g.taps[i]
		}
	}
	return x
}

// newTestState returns a standalone descent state for k tags and l
// rows, the target of a test's restart build.
func newTestState(k, l int) *descentState {
	st := &descentState{
		residual: make(dsp.Vec, l),
		sum:      make([]complex128, k),
		gain:     make([]float64, k),
		bSign:    make([]float64, k),
		maskTap:  make([]complex128, k),
	}
	st.allocDirty(make([]int, k), make([]bool, k))
	return st
}

// rebuildRowState rebuilds position p's row state (residual, S-sums,
// flip signs and gains) from its bits when the last slot was a Gram
// slot, which keeps none: the row side of the tests that compare the
// two representations at one position. After a Gram slot the next row
// slot rebuilds every position anyway, so no later decode reads what
// this writes.
func rebuildRowState(s *Session, p int) {
	if !s.stateValid {
		s.rebuildPosition(p, &s.states[p], s.PosBits(p), s.curLocked)
	}
}

// checkBuildFrom rebuilds position p's row state if a Gram slot left
// none (rebuildRowState), builds a restart at bits b from it
// (buildFrom) and fails unless its residual matches a from-scratch
// y − D·H·b on every active row within 1e-9, and every active tag's
// S-sum and gain match the sums of that scratch residual within 1e-9.
// b must agree with the position's bits on every locked tag.
func checkBuildFrom(t *testing.T, s *Session, p int, b bits.Vector, what string) {
	t.Helper()
	g := &s.g
	rebuildRowState(s, p)
	rst := newTestState(s.k, g.L)
	rst.buildFrom(g, &s.states[p], s.PosBits(p), b)
	want := make([]complex128, g.L)
	for _, row := range g.activeRows {
		want[row] = scratchRow(s, p, row, b)
		got := rst.residual[row]
		if !closeTo(real(got), real(want[row]), 1e-9) || !closeTo(imag(got), imag(want[row]), 1e-9) {
			t.Fatalf("%s: position %d row %d restart residual %v, want %v", what, p, row, got, want[row])
		}
	}
	for _, i := range g.activeTags {
		var sum complex128
		for _, row := range g.colRows[i] {
			sum += want[row]
		}
		sign := 1.0
		if b[i] {
			sign = -1
		}
		gain := 2*(g.tapRe[i]*real(sum)+g.tapIm[i]*imag(sum))*sign - g.wPow[i]
		if !closeTo(real(rst.sum[i]), real(sum), 1e-9) || !closeTo(imag(rst.sum[i]), imag(sum), 1e-9) || !closeTo(rst.gain[i], gain, 1e-9) {
			t.Fatalf("%s: position %d tag %d restart sum %v gain %v, want %v and %v", what, p, i, rst.sum[i], rst.gain[i], sum, gain)
		}
	}
}

// TestSessionRestartStartsFromState pins the pass inputs that start
// from a position's own state. Random sessions run through locks,
// retaps, Retire and RetireTag; after every decoded slot, at every
// position:
//   - buildFrom at random active bits, from the position's row state,
//     matches a from-scratch y − D·H·b on every active row (and the
//     S-sums and gains that residual implies) within 1e-9;
//   - buildFrom at bits that differ from the position's only on tags
//     with no rows is bitwise the position's residual;
//   - gramInput's B, read from the matched-filter state, matches
//     Wᴴ(y − locked set-bit taps) within 1e-9.
func TestSessionRestartStartsFromState(t *testing.T) {
	const (
		frameLen = 4
		restarts = 2
		slots    = 40
		window   = 14
		base     = 0x5747
	)
	var builds, rowless, projections int
	for trial := 0; trial < 8; trial++ {
		seed := uint64(trial)
		src := prng.NewSource(0x5747 + seed)
		k := 5 + src.IntN(8)
		taps := randomTaps(k, src)
		rows, obss := scriptSlots(k, frameLen, slots, 0xB1D0+seed)
		mover := k - 1

		s := NewSession()
		s.Begin(k, frameLen, slots, restarts, taps)
		s.TrackTagDrift(true)
		s.InitPositions(randomEstimates(k, frameLen, src))
		g := &s.g
		ws := &s.ws
		locked := make([]bool, k)
		nLocked := 0
		minMargin := make([]float64, k)
		ambiguous := make([]bool, k)
		cur := append([]complex128(nil), taps...)
		b := make(bits.Vector, k)
		bitSrc := prng.NewSource(0xB175 + seed)
		for slot := 1; slot <= slots; slot++ {
			if slot%7 == 0 {
				cur[mover] *= complex(0.99, 0.03)
				s.RetapAll(cur)
			}
			s.AppendSlot(rows[slot-1], obss[slot-1])
			s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
			what := fmt.Sprintf("trial %d slot %d", trial, slot)
			s.prepareGram()
			for p := 0; p < frameLen; p++ {
				st := &s.states[p]
				pb := s.PosBits(p)

				copy(b, pb)
				randomBitsInto(bitSrc, b, g.activeTags)
				checkBuildFrom(t, s, p, b, what)
				builds++

				copy(b, pb)
				flipped := false
				for _, i := range g.activeTags {
					if g.Degree(i) == 0 {
						b[i] = !b[i]
						flipped = true
					}
				}
				rst := newTestState(k, g.L)
				rst.buildFrom(g, st, pb, b)
				for _, row := range g.activeRows {
					if !bitsEqual(rst.residual[row], st.residual[row]) {
						t.Fatalf("%s: position %d row %d: build at the position's bits gave %v, residual %v", what, p, row, rst.residual[row], st.residual[row])
					}
				}
				if flipped {
					rowless++
				}

				ws.gramInput(s, p, pb)
				lockedSet := make(bits.Vector, k)
				for i := range lockedSet {
					lockedSet[i] = locked[i] && pb[i]
				}
				lb := make([]complex128, g.L)
				for _, row := range g.activeRows {
					lb[row] = scratchRow(s, p, row, lockedSet)
				}
				for x, i := range g.activeTags {
					var want complex128
					for _, row := range g.colRows[i] {
						want += lb[row]
					}
					if got := ws.gB[x]; !closeTo(real(got), real(want), 1e-9) || !closeTo(imag(got), imag(want), 1e-9) {
						t.Fatalf("%s: position %d tag %d: gramInput B %v, want %v", what, p, i, got, want)
					}
				}
				projections++
			}

			if i := src.IntN(k); slot > 4 && nLocked < k/2 && !locked[i] && src.Bernoulli(0.3) {
				locked[i] = true
				nLocked++
			}
			if slot > window && slot%4 == 0 {
				s.Retire(slot - window)
			}
			if slot > 6 && slot%3 == 0 {
				s.RetireTag(src.IntN(k), slot-6)
			}
			if slot%5 == 0 {
				// Leaves the tag with no rows until it transmits again.
				s.RetireTag(src.IntN(k), slot)
			}
		}
	}
	if rowless == 0 {
		t.Fatal("no position had an active tag without rows")
	}
	t.Logf("%d random builds, %d with rowless tags flipped, %d projections checked", builds, rowless, projections)
}

// fuzzSession replays one fuzz op script on a fresh session, checking
// the state contract after every decode (a mutation leaves PosError
// stale until the next decode rebuilds), and returns everything the
// decode emitted (margins, ambiguity flags, bits, full errors) in
// order. Without observer it decodes beside a full-fan twin (fanTwin),
// which receives every mutation too. With observer it decodes alone and
// also calls PosError at every position after every op, mutations
// included, discarding the values: the twin replay makes no such calls,
// so the two replays' outputs agree only if PosError is a pure read.
func fuzzSession(t *testing.T, k, frameLen int, seed uint64, ops []byte, observer bool) []float64 {
	t.Helper()
	src := prng.NewSource(seed)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	drv := &sessionDriver{k: k, frameLen: frameLen, src: src.Fork(1)}
	s := NewSession()
	s.Begin(k, frameLen, len(ops)+1, 2, taps)
	s.InitPositions(est)
	var tw *fanTwin
	each := func(f func(*Session)) { f(s) }
	if !observer {
		tw = newFanTwin(k, frameLen, len(ops)+1, 2, taps)
		tw.ref.InitPositions(est)
		each = func(f func(*Session)) { f(s); f(tw.ref) }
	}
	g := &s.g
	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	var out []float64
	bitSrc := prng.NewSource(seed ^ 0xB175)
	b := make(bits.Vector, k)
	check := func() {
		// First: the Gram-vs-row check below rebuilds row state over the
		// gains a Gram slot installed, which the certificate reads.
		if checkGateCertificate(t, s, locked, &gateTally{}); t.Failed() {
			t.FailNow()
		}
		if s.gramOn {
			// Ahead of PosError, which materializes every residual: the
			// Gram side must read the positions this slot left stale.
			if checkGateGramMatchesRows(t, s, locked); t.Failed() {
				t.FailNow()
			}
		}
		for p := 0; p < frameLen; p++ {
			if got, want := s.PosError(p), scratchError(s, p); !closeTo(got, want, 1e-9) {
				t.Fatalf("position %d error %v, want %v", p, got, want)
			}
			copy(b, s.PosBits(p))
			randomBitsInto(bitSrc, b, g.activeTags)
			checkBuildFrom(t, s, p, b, "after a decode")
		}
		checkMatchedFilter(t, s, "after a decode")
	}
	for _, op := range ops {
		arg := int(op >> 3)
		switch op % 8 {
		case 4:
			locked[arg%k] = true
		case 5:
			through := 1 + arg%(g.L+1)
			each(func(x *Session) { x.Retire(through) })
		case 6:
			through := 1 + arg%(g.L+1)
			each(func(x *Session) { x.RetireTag(arg%k, through) })
		case 7:
			// Moves every third tap, or every tap when arg is odd.
			next := append([]complex128(nil), g.taps...)
			for i := range next {
				if (i+arg)%3 == 0 || arg&1 == 1 {
					next[i] *= complex(1+0.01*float64(arg%5), 0.005)
				}
			}
			each(func(x *Session) { x.RetapAll(next) })
		default:
			if g.L == s.maxSlots {
				continue
			}
			row, obs := drv.slot()
			each(func(x *Session) { x.AppendSlot(row, obs) })
			if !observer {
				// DecodeSlot's schedule beside the full-fan twin, checking
				// each Gram position's passes while the workspace holds
				// them: every recorded error, reused or not, is gramError
				// of its final bits.
				tw.decode(t, s, g.L, locked, seed, minMargin, ambiguous, func(p int, ws *workspace) {
					if !s.gramOn {
						return
					}
					s.cond.gramInput(s, p, s.PosBits(p))
					if bad := passErrsMatch(s, ws, func(b bits.Vector) float64 { return s.cond.gramError(s, b) }); bad >= 0 {
						t.Fatalf("position %d pass %d: recorded error %v is not gramError of its bits", p, bad, ws.passErr[bad])
					}
				})
			} else {
				s.DecodeSlot(g.L, locked, seed, minMargin, ambiguous)
			}
			check()
			out = append(out, minMargin...)
			for i, a := range ambiguous {
				if a {
					out = append(out, float64(i))
				}
			}
			for p := 0; p < frameLen; p++ {
				for _, bit := range s.PosBits(p) {
					if bit {
						out = append(out, 1)
					} else {
						out = append(out, 0)
					}
				}
				out = append(out, s.PosError(p))
			}
		}
		if observer {
			for p := 0; p < frameLen; p++ {
				s.PosError(p)
			}
		}
	}
	return out
}

// FuzzSessionSlot drives small hard-mode sessions (K ≤ 12, frame
// length ≤ 4) through random slot appends and decodes, CRC locks,
// Retire, RetireTag and RetapAll. It must never panic; after every
// decode (not after each mutation, which leaves the cached state stale
// until the decode rebuilds it) PosError must match a from-scratch
// ‖y − D·H·b‖² within 1e-9 relative, a restart built from each
// position's state at random active bits must match a from-scratch
// y − D·H·b on every active row (checkBuildFrom), and the
// matched-filter outputs and co-occurrence Gram must match a recount
// over the live rows (checkMatchedFilter), and on a Gram slot the
// acceptance gate's Gram and row paths must agree on every unlocked
// tag's conditional margin and bits (checkGateGramMatchesRows), the
// certified acceptance gate must decide as the plain re-descent does
// (checkGateCertificate), and
// each pass's recorded error must equal gramError of its final bits
// (checked on the twin replay, which runs DecodeSlot's schedule through
// decodeSlotChecked); the twin replay decodes beside a full-fan twin,
// which must confirm every certified position (fanTwin: bitwise equal
// outputs on a Gram slot; on a row slot no adoption that flips a
// covered tag and no mark); and an observer replay of the same script
// must emit bitwise the same margins, ambiguity flags, bits and errors,
// though only it calls PosError after every op (observer purity).
func FuzzSessionSlot(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint64(1), []byte{0, 0, 0, 12, 0, 0, 0x24, 0, 0, 5, 0, 6, 0, 7, 0, 0xF, 0})
	f.Add(uint8(11), uint8(4), uint64(42), []byte{0, 1, 2, 4, 12, 20, 28, 36, 0, 0, 0, 0, 0, 0x1E, 0, 0x35, 0, 0, 0x47, 0})
	f.Add(uint8(3), uint8(1), uint64(7), []byte{0, 4, 12, 20, 0, 0, 0, 0x55, 0, 0x3D, 0})
	// Three of four tags lock early, so most rows freeze; retaps then
	// force rebuilds on the sparse shape.
	f.Add(uint8(3), uint8(2), uint64(9), []byte{0, 0, 0, 4, 12, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 15, 0, 0x2E, 0, 15, 0})
	f.Fuzz(func(t *testing.T, kb, fb uint8, seed uint64, ops []byte) {
		k := 1 + int(kb)%12
		frameLen := 1 + int(fb)%4
		if len(ops) > 48 {
			ops = ops[:48]
		}
		twin := fuzzSession(t, k, frameLen, seed, ops, false)
		observed := fuzzSession(t, k, frameLen, seed, ops, true)
		if len(twin) != len(observed) {
			t.Fatalf("twin replay emitted %d values, observer replay %d", len(twin), len(observed))
		}
		for x := range twin {
			if math.Float64bits(twin[x]) != math.Float64bits(observed[x]) {
				t.Fatalf("value %d: twin replay %v, observer replay %v", x, twin[x], observed[x])
			}
		}
	})
}

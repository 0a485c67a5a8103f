package bp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// fanTwin runs a reference session beside a session under test: the
// same ops, the same inputs, but the reference runs the full restart fan
// at every position (fullFan), certified or not. After every decode
// (decode) it checks the certificate's claims against what the full
// fan did:
//   - on a Gram slot, the two sessions' bits, installed gains, margins,
//     ambiguity flags and adopted pass errors (gramErr) are bitwise
//     equal;
//   - on a row slot, at every position where the reference's own
//     certificate held, its full fan kept pass 0's bits on every tag the
//     certificate covers (rows and a nonzero tap) and marked nothing.
//
// It also checks that the session under test ran the fan exactly where
// its certificate failed. A row slot's full fan may adopt a restart that
// ties pass 0 up to rounding (the same bits, or bits that differ only on
// tags the certificate skips); the reference then takes the tested
// session's bits and rebuilds its row state at the next row slot, so the
// next Gram slot starts both from the same bits.
type fanTwin struct {
	ref *Session
	// Tallies over the tested session's positions: certified, and ran
	// the fan, per slot kind.
	gramCert, gramFan, rowCert, rowFan int
}

// newFanTwin begins a full-fan reference session of the given shape.
func newFanTwin(k, frameLen, maxSlots, restarts int, taps []complex128) *fanTwin {
	ref := NewSession()
	ref.Begin(k, frameLen, maxSlots, restarts, taps)
	ref.fullFan = true
	return &fanTwin{ref: ref}
}

// covered reports whether the certificate covers tag i of s: a tag with
// live rows and a nonzero tap.
func covered(s *Session, i int) bool {
	return len(s.g.colRows[i]) > 0 && s.g.taps[i] != 0
}

// decode decodes slot on s through DecodeSlot's schedule
// (decodeSlotChecked, calling check, when not nil, after each
// position), then on the reference, and checks the two as the type's
// comment describes.
func (tw *fanTwin) decode(t *testing.T, s *Session, slot int, locked []bool, base uint64, minMargin []float64, ambiguous []bool, check func(p int, ws *workspace)) {
	t.Helper()
	ref := tw.ref
	decodeSlotChecked(s, slot, locked, base, minMargin, ambiguous, func(p int, ws *workspace) {
		if ws.certified != (ws.passes == 1) {
			t.Fatalf("slot %d position %d: %d passes with certificate %v", slot, p, ws.passes, ws.certified)
		}
		switch {
		case s.gramOn && ws.certified:
			tw.gramCert++
		case s.gramOn:
			tw.gramFan++
		case ws.certified:
			tw.rowCert++
		default:
			tw.rowFan++
		}
		if check != nil {
			check(p, ws)
		}
	})
	k := s.k
	refMargin, refAmb := make([]float64, k), make([]bool, k)
	decodeSlotChecked(ref, slot, locked, base, refMargin, refAmb, func(p int, ws *workspace) {
		if ref.gramOn || !ws.certified {
			return
		}
		pb := ref.PosBits(p)
		for _, i := range ref.g.activeTags {
			if ref.ambiguous[p*ref.kStride+i] {
				t.Fatalf("slot %d position %d: certified, but the full fan marked tag %d", slot, p, i)
			}
			if covered(ref, i) && pb[i] != ws.allBits[i] {
				t.Fatalf("slot %d position %d: certified, but the full fan adopted a pattern that flips tag %d", slot, p, i)
			}
		}
	})
	if s.gramOn != ref.gramOn {
		t.Fatalf("slot %d: Gram path %v, reference %v", slot, s.gramOn, ref.gramOn)
	}
	if !s.gramOn {
		if !sameRowState(s, ref) {
			for p := 0; p < s.frameLen; p++ {
				copy(ref.PosBits(p), s.PosBits(p))
			}
			ref.stateValid = false
		}
		return
	}
	for i := 0; i < k; i++ {
		if math.Float64bits(minMargin[i]) != math.Float64bits(refMargin[i]) || ambiguous[i] != refAmb[i] {
			t.Fatalf("Gram slot %d tag %d: margin %v ambiguous %v, full fan %v %v", slot, i, minMargin[i], ambiguous[i], refMargin[i], refAmb[i])
		}
	}
	for p := 0; p < s.frameLen; p++ {
		if math.Float64bits(s.gramErr[p]) != math.Float64bits(ref.gramErr[p]) {
			t.Fatalf("Gram slot %d position %d: pass error %v, full fan %v", slot, p, s.gramErr[p], ref.gramErr[p])
		}
		for i, b := range s.PosBits(p) {
			if b != ref.PosBits(p)[i] {
				t.Fatalf("Gram slot %d position %d tag %d: bit %v, full fan %v", slot, p, i, b, !b)
			}
		}
		for _, i := range s.g.activeTags {
			if g, rg := s.states[p].gain[i], ref.states[p].gain[i]; math.Float64bits(g) != math.Float64bits(rg) {
				t.Fatalf("Gram slot %d position %d tag %d: gain %v, full fan %v", slot, p, i, g, rg)
			}
		}
	}
}

// sameRowState reports whether a and b hold bitwise the same bits at
// every position and the same row state (residual on the active rows,
// active tags' S-sums, signs and gains).
func sameRowState(a, b *Session) bool {
	for p := 0; p < a.frameLen; p++ {
		for i, v := range a.PosBits(p) {
			if v != b.PosBits(p)[i] {
				return false
			}
		}
		sa, sb := &a.states[p], &b.states[p]
		for _, row := range a.g.activeRows {
			if !bitsEqual(sa.residual[row], sb.residual[row]) {
				return false
			}
		}
		for _, i := range a.g.activeTags {
			if !bitsEqual(sa.sum[i], sb.sum[i]) || math.Float64bits(sa.gain[i]) != math.Float64bits(sb.gain[i]) || sa.bSign[i] != sb.bSign[i] {
				return false
			}
		}
	}
	return true
}

// TestSessionCertifiedFanMatchesFullFan is the certificate's twin test
// (fanTwin) on random sessions that mix Gram and row slots and run
// through Grow (latecomers without rows), CRC locks, Retire, RetireTag
// and RetapAll, one trial in three moving a tap to exactly zero. The
// observations carry the tags' messages, so most positions converge and
// many certify. It fails unless both slot kinds had positions that
// certified and positions that ran the fan.
func TestSessionCertifiedFanMatchesFullFan(t *testing.T) {
	const (
		frameLen = 6
		restarts = 2
		slots    = 40
		window   = 14
		base     = 0xCE27
	)
	var tally [4]int
	for trial := 0; trial < 12; trial++ {
		src := prng.NewSource(0xCE270 + uint64(trial))
		k0 := 3 + src.IntN(8)
		kNew := 1 + src.IntN(3)
		k2 := k0 + kNew
		// Sparse rows decode on the row path, dense ones on the Gram path.
		q := 0.15 + 0.5*src.Float64()
		taps := randomTaps(k2, src)
		msgs := randomEstimates(k2, frameLen, src)
		est := randomEstimates(k2, frameLen, src)
		nLock := k0 / 3
		for i := 0; i < nLock; i++ {
			est[i] = msgs[i]
		}
		s := NewSession()
		s.Begin(k0, frameLen, slots+1, restarts, taps[:k0])
		s.InitPositions(est[:k0])
		tw := newFanTwin(k0, frameLen, slots+1, restarts, taps[:k0])
		tw.ref.InitPositions(est[:k0])
		each := func(f func(*Session)) { f(s); f(tw.ref) }
		locked := make([]bool, k2)
		minMargin := make([]float64, k2)
		ambiguous := make([]bool, k2)
		cur := append([]complex128(nil), taps...)
		for slot := 1; slot <= slots; slot++ {
			if slot == slots/3 {
				each(func(x *Session) { x.Grow(taps[k0:], est[k0:]) })
			}
			k := s.k
			if slot%4 == 0 {
				for i := range cur[:k] {
					if src.Bernoulli(0.5) {
						cur[i] *= complex(0.995, 0.02)
					}
				}
				if trial%3 == 2 && slot >= slots/2 {
					cur[k-1] = complex(math.Copysign(0, -1), 0)
				}
				each(func(x *Session) { x.RetapAll(cur[:k]) })
			}
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
			each(func(x *Session) { x.AppendSlot(row, obs) })
			tw.decode(t, s, slot, locked[:k], base, minMargin[:k], ambiguous[:k], nil)
			switch {
			case slot%7 == 0 && slot/7 <= nLock:
				locked[slot/7-1] = true
			case slot > window && slot%3 == 0:
				each(func(x *Session) { x.Retire(slot - window) })
			case slot%5 == 0:
				i, through := src.IntN(k), slot-window/2
				each(func(x *Session) { x.RetireTag(i, through) })
			}
		}
		for x, n := range []int{tw.gramCert, tw.gramFan, tw.rowCert, tw.rowFan} {
			tally[x] += n
		}
	}
	if slices.Min(tally[:]) == 0 {
		t.Fatalf("positions: Gram %d certified, %d ran the fan; row %d certified, %d ran the fan; want each above 0", tally[0], tally[1], tally[2], tally[3])
	}
	t.Logf("positions: Gram %d certified, %d ran the fan; row %d certified, %d ran the fan", tally[0], tally[1], tally[2], tally[3])
}

// TestCertifyThresholds pins certify's predicate at its boundaries on a
// hand-built slot: tags 0, 1 and 2 share their one row with real taps
// 1, 0.5 and 0.5, so k_01 = k_02 = 1, k_12 = 0.5 and |h|²·w is 1, 0.25
// and 0.25; tag 3 has no rows, so it is not in the slot's decode set and
// the tables rank tags 0–2 (Ka = 3). Each case sits within δ of one term of
// θ_x = 0.15·|h_x|²·w_x + δ or of m_x − ½·P_x, where the quick pass on
// A_x cannot decide, so dropping the ½, the 0.15·|h|²·w term or the
// slack δ flips one of them.
func TestCertifyThresholds(t *testing.T) {
	s := NewSession()
	s.Begin(4, 1, 2, 2, []complex128{1, 0.5, 0.5, 2})
	s.AppendSlot(bits.Vector{true, true, true, false}, []complex128{0})
	s.prepareSlot(1, nil, 0)
	if s.couplingRow(0)[1] != 1 || s.couplingRow(1)[2] != 0.5 || s.certA[0] != 2 || s.g.wPow[1] != 0.25 {
		t.Fatalf("staged k_01 %v, k_12 %v, A_0 %v, |h_1|²·w_1 %v; want 1, 0.5, 2, 0.25", s.couplingRow(0)[1], s.couplingRow(1)[2], s.certA[0], s.g.wPow[1])
	}
	const lambda = 1.0
	delta := certSlack * lambda
	inf := math.Inf(1)
	same, split := [4]float64{1, 1, 1, 1}, [4]float64{1, -1, 1, 1}
	for _, c := range []struct {
		what string
		m    [4]float64 // m_x = −gain_x
		sign [4]float64
		want bool
	}{
		// Same signs: every σ_xσ_y·k_xy > 0, so P_x = 0 and θ_0 binds.
		{"m_0 = 0.15·|h|²·w, δ below θ_0", [4]float64{0.15, 10, 10, inf}, same, false},
		{"m_0 = θ_0 + δ/2", [4]float64{0.15 + 1.5*delta, 10, 10, inf}, same, true},
		{"m_0 above δ, below 0.15·|h|²·w", [4]float64{0.1, 10, 10, inf}, same, false},
		// Tag 1 set against tags 0 and 2: P_0 = 1 (from k_01 alone) while
		// A_0 = 2, and P_1 = 1.5.
		{"m_0 − ½·P_0 = θ_0 + δ/2, m_0 − P_0 below θ_0", [4]float64{0.65 + 1.5*delta, 10, 10, inf}, split, true},
		{"m_0 − ½·P_0 = θ_0 − δ/2", [4]float64{0.65 + 0.5*delta, 10, 10, inf}, split, false},
		{"m_1 − ½·P_1 below θ_1", [4]float64{10, 0.7, 10, inf}, split, false},
		{"quick pass on A for every tag", [4]float64{1.2, 1, 1, inf}, same, true},
		{"NaN gain", [4]float64{math.NaN(), 10, 10, 0}, same, false},
	} {
		gain := make([]float64, 4)
		for x, m := range c.m {
			gain[x] = -m
		}
		if got := s.certify(gain, c.sign[:], lambda); got != c.want {
			t.Errorf("%s: certify %v, want %v", c.what, got, c.want)
		}
	}
}

// TestCertifySkipsRowlessAndZeroTaps checks that a tag with no rows,
// or with a tap of exactly zero, never blocks a certificate whatever
// its gain, while a tap too small for |h|²·w to be nonzero still must
// clear δ.
func TestCertifySkipsRowlessAndZeroTaps(t *testing.T) {
	for _, c := range []struct {
		taps []complex128
		row  bits.Vector
		want bool
	}{
		{[]complex128{1, 0.5}, bits.Vector{true, false}, true},
		{[]complex128{1, 0}, bits.Vector{true, true}, true},
		{[]complex128{1, complex(math.Copysign(0, -1), 0)}, bits.Vector{true, true}, true},
		{[]complex128{1, 1e-170}, bits.Vector{true, true}, false},
	} {
		s := NewSession()
		s.Begin(2, 1, 2, 2, c.taps)
		s.AppendSlot(c.row, []complex128{0})
		s.prepareSlot(1, nil, 0)
		if got := s.certify([]float64{-1, 0}, []float64{1, 1}, 1); got != c.want {
			t.Errorf("taps %v row %v: certify %v, want %v", c.taps, c.row, got, c.want)
		}
	}
}

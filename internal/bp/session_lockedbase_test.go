package bp

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// bitsEqual reports whether a and b have identical real and imaginary
// bit patterns.
func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestSessionLockedBaseBuildersAgree pins the two locked-base builders
// of rebuildPosition to each other: on random hard-mode sessions
// driven through locks, Retire and RetireTag, the column fold
// (lockedBaseByCols) and the active-row sweep (lockedBaseByRows) must
// produce bitwise-identical values on every active row and an
// identical E0 — so which shape a slot takes never moves a float.
func TestSessionLockedBaseBuildersAgree(t *testing.T) {
	const (
		frameLen = 3
		maxSlots = 40
		window   = 16
	)
	var compared, sparse, frozen int
	for seed := uint64(1); seed <= 12; seed++ {
		src := prng.NewSource(0x10C4ED + seed)
		k := 6 + src.IntN(11)
		taps := randomTaps(k, src)
		rows, obss := scriptSlots(k, frameLen, maxSlots, 0xB0A5E+seed)
		s := NewSession()
		s.Begin(k, frameLen, maxSlots, 1, 2, taps)
		s.InitPositions(randomEstimates(k, frameLen, src))
		locked := make([]bool, k)
		minMargin := make([]float64, k)
		ambiguous := make([]bool, k)
		g := &s.g
		lockTap := make([]complex128, k)
		for slot := 1; slot <= maxSlots; slot++ {
			s.AppendSlot(rows[slot-1], obss[slot-1])
			s.DecodeSlot(slot, locked, seed, minMargin, ambiguous)
			if 2*len(g.activeRows) <= g.L-g.retired {
				sparse++
			}
			for row := g.retired; row < g.L; row++ {
				if len(g.rowActive[row]) == 0 {
					frozen++
				}
			}
			for p := 0; p < frameLen; p++ {
				y := s.ys[p][:g.L]
				b := s.PosBits(p)
				byCols := make([]complex128, g.L)
				byRows := make([]complex128, g.L)
				e0c := s.lockedBaseByCols(byCols, y, b, locked)
				e0r := s.lockedBaseByRows(byRows, y, b, locked, lockTap)
				for _, row := range g.activeRows {
					if !bitsEqual(byCols[row], byRows[row]) {
						t.Fatalf("seed %d slot %d position %d row %d: column build %v, row build %v", seed, slot, p, row, byCols[row], byRows[row])
					}
				}
				if math.Float64bits(e0c) != math.Float64bits(e0r) {
					t.Fatalf("seed %d slot %d position %d: column E0 %v, row E0 %v", seed, slot, p, e0c, e0r)
				}
				compared++
			}
			// Lock a random tag on 40% of the slots, then window the rows
			// and a random tag's participation.
			if i := src.IntN(k); slot > 3 && src.Bernoulli(0.4) {
				locked[i] = true
			}
			if slot > window && slot%5 == 0 {
				s.Retire(slot - window)
			}
			if slot > 6 && slot%3 == 0 {
				s.RetireTag(src.IntN(k), slot-6)
			}
		}
		s.Close()
	}
	if sparse == 0 || frozen == 0 {
		t.Fatalf("the sessions never reached the sparse shape (%d slots) or froze a row (%d rows)", sparse, frozen)
	}
	t.Logf("%d position builds compared; %d slots on the sparse shape, %d frozen row-slots", compared, sparse, frozen)
}

// fuzzSession replays one fuzz op script on a fresh session at the
// given parallelism, checking the state contract after every decode
// (a mutation leaves PosError stale until the next decode rebuilds),
// and returns everything the decode emitted (margins, ambiguity flags,
// bits, full errors) in order.
func fuzzSession(t *testing.T, k, frameLen int, seed uint64, ops []byte, par int) []float64 {
	t.Helper()
	src := prng.NewSource(seed)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	drv := &sessionDriver{k: k, frameLen: frameLen, src: src.Fork(1)}
	s := NewSession()
	defer s.Close()
	s.Begin(k, frameLen, len(ops)+1, par, 2, taps)
	s.InitPositions(est)
	g := &s.g
	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	var out []float64
	check := func(bitwise bool) {
		for p := 0; p < frameLen; p++ {
			if got, want := s.PosError(p), scratchError(s, p); !closeTo(got, want, 1e-9) {
				t.Fatalf("position %d error %v, want %v", p, got, want)
			}
			for _, row := range g.activeRows {
				// The folded lock set: a lock staged since the last
				// decode has not reached the base yet.
				got, want := s.lockedBase[p][row], scratchLockedBase(s, p, row, g.deactivated)
				if bitwise && !bitsEqual(got, want) ||
					!closeTo(real(got), real(want), 1e-9) || !closeTo(imag(got), imag(want), 1e-9) {
					t.Fatalf("position %d row %d locked base %v, want %v (bitwise %v)", p, row, got, want, bitwise)
				}
			}
		}
	}
	for _, op := range ops {
		arg := int(op >> 3)
		switch op % 8 {
		case 4:
			locked[arg%k] = true
		case 5:
			s.Retire(1 + arg%(g.L+1))
		case 6:
			s.RetireTag(arg%k, 1+arg%(g.L+1))
		case 7:
			// Moves every third tap, or every tap when arg is odd.
			next := append([]complex128(nil), g.taps...)
			for i := range next {
				if (i+arg)%3 == 0 || arg&1 == 1 {
					next[i] *= complex(1+0.01*float64(arg%5), 0.005)
				}
			}
			s.RetapAll(next)
		default:
			if g.L == s.maxSlots {
				continue
			}
			row, obs := drv.slot()
			s.AppendSlot(row, obs)
			rebuilt := !s.stateValid
			s.DecodeSlot(g.L, locked, seed, minMargin, ambiguous)
			// A rebuild builds every active row of the locked base from
			// scratch in ascending tag order; incremental lock folds and
			// appends keep it within rounding of that.
			check(rebuilt)
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
	}
	return out
}

// FuzzSessionSlot drives small hard-mode sessions (K ≤ 12, frame
// length ≤ 4) through random slot appends and decodes, CRC locks,
// Retire, RetireTag and RetapAll. It must never panic; after every
// decode (not after each mutation, which leaves the cached state stale
// until the decode rebuilds it) PosError must match a from-scratch
// ‖y − D·H·b‖² within 1e-9 relative and the locked base must match a
// from-scratch build on every active row (bitwise after a rebuild);
// and Parallelism 1 and 2 must emit identical margins, ambiguity
// flags, bits and errors.
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
		serial := fuzzSession(t, k, frameLen, seed, ops, 1)
		parallel := fuzzSession(t, k, frameLen, seed, ops, 2)
		if len(serial) != len(parallel) {
			t.Fatalf("Parallelism 1 emitted %d values, Parallelism 2 %d", len(serial), len(parallel))
		}
		for x := range serial {
			if math.Float64bits(serial[x]) != math.Float64bits(parallel[x]) {
				t.Fatalf("value %d: Parallelism 1 %v, Parallelism 2 %v", x, serial[x], parallel[x])
			}
		}
	})
}

package bp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// sessionDriver drives a bare Session through synthetic collision
// slots: random participation rows and observations, deterministic
// from the seed.
type sessionDriver struct {
	k, frameLen int
	src         *prng.Source
}

func (d *sessionDriver) slot() (bits.Vector, []complex128) {
	row := make(bits.Vector, d.k)
	any := false
	for i := range row {
		row[i] = d.src.Bernoulli(0.4)
		any = any || bool(row[i])
	}
	if !any {
		row[d.src.IntN(d.k)] = true
	}
	obs := make([]complex128, d.frameLen)
	for p := range obs {
		obs[p] = complex(d.src.NormFloat64(), d.src.NormFloat64())
	}
	return row, obs
}

func randomTaps(k int, src *prng.Source) []complex128 {
	taps := make([]complex128, k)
	for i := range taps {
		taps[i] = complex(1+src.Float64(), src.Float64()-0.5)
	}
	return taps
}

func randomEstimates(k, frameLen int, src *prng.Source) []bits.Vector {
	est := make([]bits.Vector, k)
	for i := range est {
		est[i] = make(bits.Vector, frameLen)
		bits.RandomInto(src, est[i])
	}
	return est
}

// closeTo compares within relative tolerance tol; tol 0 demands exact
// equality.
func closeTo(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// decodeCompare runs DecodeSlot on both sessions and fails on any
// divergence in margins, ambiguity flags, per-position bits or errors.
// tol bounds the float divergence: 0 before any incremental retap
// (identical code paths must agree exactly), a few ULPs' worth after
// one (the patch adds tap deltas onto cached residuals instead of
// re-summing, a different float association than the rebuild). Bits
// and ambiguity flags must always match exactly.
func decodeCompare(t *testing.T, a, b *Session, slot int, locked []bool, base uint64, k, frameLen int, tol float64) {
	t.Helper()
	am, bm := make([]float64, k), make([]float64, k)
	aa, ba := make([]bool, k), make([]bool, k)
	a.DecodeSlot(slot, locked, base, am, aa)
	b.DecodeSlot(slot, locked, base, bm, ba)
	for i := 0; i < k; i++ {
		if !closeTo(am[i], bm[i], tol) || aa[i] != ba[i] {
			t.Fatalf("slot %d tag %d: margins/ambiguity diverged: (%v,%v) vs (%v,%v)", slot, i, am[i], aa[i], bm[i], ba[i])
		}
	}
	for p := 0; p < frameLen; p++ {
		if !closeTo(a.PosError(p), b.PosError(p), tol) {
			t.Fatalf("slot %d position %d: error diverged: %v vs %v", slot, p, a.PosError(p), b.PosError(p))
		}
		pa, pb := a.PosBits(p), b.PosBits(p)
		for i := 0; i < k; i++ {
			if pa[i] != pb[i] {
				t.Fatalf("slot %d position %d tag %d: bits diverged", slot, p, i)
			}
		}
	}
}

// verifyState recomputes every position's residual, unlocked S-sums
// and gains from the session's observations, current bits and current
// taps, and fails if the cached state disagrees beyond tol — the
// white-box contract RetapAll's and Retire's incremental patches must
// keep. Retired rows and inactive rows (every collider locked) are
// skipped: their cached residual entries are dead by design — an
// inactive row's energy lives in the frozen-row constant, checked
// below. (Exact equality is not required: the patches add deltas onto
// cached values, a different float association than the rebuild.)
func verifyState(t *testing.T, s *Session, locked []bool, tol float64, what string) {
	t.Helper()
	if !s.stateValid {
		t.Fatalf("%s: state invalidated, expected an incremental patch", what)
	}
	g := &s.g
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		myBits := s.PosBits(p)
		for row := g.retired; row < g.L; row++ {
			if len(g.rowActive[row]) == 0 {
				continue
			}
			want := s.ys[p][row]
			for _, i := range g.rowCols[row] {
				if myBits[i] {
					want -= g.taps[i]
				}
			}
			got := st.residual[row]
			if !closeTo(real(got), real(want), tol) || !closeTo(imag(got), imag(want), tol) {
				t.Fatalf("%s: position %d row %d residual %v, want %v", what, p, row, got, want)
			}
		}
		for i := 0; i < s.k; i++ {
			if locked[i] {
				if !math.IsInf(st.gain[i], -1) {
					t.Fatalf("%s: position %d locked tag %d gain %v, want -Inf", what, p, i, st.gain[i])
				}
				continue
			}
			var sum complex128
			for _, row := range g.colRows[i] {
				sum += st.residual[row]
			}
			if !closeTo(real(st.sum[i]), real(sum), tol) || !closeTo(imag(st.sum[i]), imag(sum), tol) {
				t.Fatalf("%s: position %d tag %d sum %v, want %v", what, p, i, st.sum[i], sum)
			}
			corr := g.tapRe[i]*real(st.sum[i]) + g.tapIm[i]*imag(st.sum[i])
			want := 2*corr*st.bSign[i] - g.wPow[i]
			if !closeTo(st.gain[i], want, tol) {
				t.Fatalf("%s: position %d tag %d gain %v, want %v", what, p, i, st.gain[i], want)
			}
		}
		// The frozen-row error constant must equal the energy of the
		// live rows whose every collider is locked — retired rows give
		// their banked share back.
		wantInact := 0.0
		for row := g.retired; row < g.L; row++ {
			if len(g.rowActive[row]) != 0 {
				continue
			}
			lb := s.ys[p][row]
			for _, i := range g.rowCols[row] {
				if myBits[i] {
					lb -= g.taps[i]
				}
			}
			wantInact += real(lb)*real(lb) + imag(lb)*imag(lb)
		}
		if !closeTo(s.errInactive[p], wantInact, tol) {
			t.Fatalf("%s: position %d frozen-row error %v, want %v", what, p, s.errInactive[p], wantInact)
		}
	}
}

// TestSessionRetapAllPatchesState pins the incremental retap path: a
// minority-tap perturbation must keep the session's cached residuals,
// S-sums and gains consistent with a from-scratch recompute under the
// new taps (within float round-off) without invalidating the state,
// and decoding must continue cleanly; a majority perturbation or a
// locked tag's move must take the rebuild fall-back.
func TestSessionRetapAllPatchesState(t *testing.T) {
	const (
		k        = 9
		frameLen = 7
		maxSlots = 32
		restarts = 2
	)
	src := prng.NewSource(0x137A)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	drv := &sessionDriver{k: k, frameLen: frameLen, src: src}

	s := NewSession()
	defer s.Close()
	s.Begin(k, frameLen, maxSlots, 1, restarts, taps)
	s.InitPositions(est)

	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	const base = 0xBA5E
	slot := 1
	for ; slot <= 4; slot++ {
		row, obs := drv.slot()
		s.AppendSlot(row, obs)
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		if slot == 2 {
			locked[3] = true // a mid-transfer CRC lock, folded next decode
		}
	}

	// Perturb a minority of unlocked taps: the incremental patch path.
	newTaps := append([]complex128(nil), taps...)
	newTaps[0] *= complex(1.02, 0.01)
	newTaps[5] *= complex(0.97, -0.02)
	s.RetapAll(newTaps)
	verifyState(t, s, locked, 1e-9, "after first retap")

	for ; slot <= 8; slot++ {
		row, obs := drv.slot()
		s.AppendSlot(row, obs)
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		for p := 0; p < frameLen; p++ {
			if math.IsNaN(s.PosError(p)) {
				t.Fatalf("slot %d position %d: error is NaN", slot, p)
			}
		}
	}
	// Patch again on the warm post-decode state.
	newTaps[6] *= complex(0.99, 0.015)
	s.RetapAll(newTaps)
	verifyState(t, s, locked, 1e-9, "after second retap")

	// A locked tag's move forces the rebuild fall-back.
	lockedMove := append([]complex128(nil), newTaps...)
	lockedMove[3] *= complex(1.01, 0)
	s.RetapAll(lockedMove)
	if s.stateValid {
		t.Fatal("locked-tag retap did not invalidate the cached state")
	}
	row, obs := drv.slot()
	s.AppendSlot(row, obs)
	s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
	verifyState(t, s, locked, 1e-9, "after rebuild")

	// A majority move also falls back to the rebuild.
	for i := range lockedMove {
		lockedMove[i] *= complex(1.01, -0.005)
	}
	s.RetapAll(lockedMove)
	if s.stateValid {
		t.Fatal("majority retap did not invalidate the cached state")
	}

	// Three unlocked tags leave most rows active, one leaves most rows
	// inactive: the rebuild takes its column-major and its row-sweep
	// residual build respectively. With a single unlocked tag the
	// restarts would re-derive both of its states from the locked base,
	// so that case runs without them and keeps pass 0's rebuilt state.
	t.Run("mostly-locked", func(t *testing.T) { retapAllMostlyLocked(t, 3, 2, false) })
	t.Run("one-unlocked", func(t *testing.T) { retapAllMostlyLocked(t, 1, 0, true) })
}

// retapAllMostlyLocked drives the retap patch where the active set is a
// small strict subset of K: all but `unlocked` of 16 tags lock at slot
// 3, so the rows they alone collide in go inactive mid-run and later
// rows are born inactive. Each slot moves one unlocked tap — the
// incremental patch — while a twin session is forced onto the rebuild;
// the two must decode alike, and a locked tag's move must land the
// patched session's rebuild on the recomputed state. sparse asserts
// that at most half the live rows are active at the rebuild.
func retapAllMostlyLocked(t *testing.T, unlocked, restarts int, sparse bool) {
	const (
		k        = 16
		frameLen = 7
		maxSlots = 32
		base     = 0x10CC
	)
	src := prng.NewSource(0x5EA1)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0xAC71)
	mk := func() *Session {
		s := NewSession()
		s.Begin(k, frameLen, maxSlots, 1, restarts, taps)
		s.InitPositions(est)
		return s
	}
	patch, rebuild := mk(), mk()
	defer patch.Close()
	defer rebuild.Close()

	locked := make([]bool, k)
	cur := append([]complex128(nil), taps...)
	slot := 1
	for ; slot <= 20; slot++ {
		if slot > 6 {
			cur[slot%unlocked] *= complex(1.01, 0.005)
			patch.RetapAll(cur)
			rebuild.RetapAll(cur)
			verifyState(t, patch, locked, 1e-9, "after an unlocked retap")
			rebuild.stateValid = false
		}
		patch.AppendSlot(rows[slot-1], obss[slot-1])
		rebuild.AppendSlot(rows[slot-1], obss[slot-1])
		decodeCompare(t, patch, rebuild, slot, locked, base, k, frameLen, 1e-9)
		if slot == 3 {
			for i := unlocked; i < k; i++ {
				locked[i] = true
			}
		}
	}
	g := &patch.g
	live, active := g.L-g.retired, len(g.activeRows)
	if active == live || 2*active <= live != sparse || len(g.activeTags) != unlocked {
		t.Fatalf("script left %d of %d live rows active and %d active tags, want %d (sparse %v)", active, live, len(g.activeTags), unlocked, sparse)
	}

	cur[k-1] *= complex(1.01, 0)
	patch.RetapAll(cur)
	if patch.stateValid {
		t.Fatal("locked-tag retap did not invalidate the cached state")
	}
	patch.AppendSlot(rows[slot-1], obss[slot-1])
	patch.DecodeSlot(slot, locked, base, make([]float64, k), make([]bool, k))
	verifyState(t, patch, locked, 1e-9, "after a rebuild with most tags locked")
}

// TestSessionGrowMatchesFresh pins Grow against a from-scratch session:
// a session that starts with k0 tags, absorbs slots, then grows to k2
// must decode exactly like a session born with k2 tags whose extra
// columns simply never participated in the early rows. Restarts are 0
// here so per-position random draws don't depend on K; the restart path
// under growth is covered end to end by the ratedapt dynamic tests. The
// mostly-locked case grows a session whose active set is one tag: the
// rows only locked tags collide in go inactive before the growth.
func TestSessionGrowMatchesFresh(t *testing.T) {
	cases := []struct {
		name     string
		k0, kNew int
		// lockEarly locks after the second pre-growth slot; the first
		// latecomer locks after the second post-growth slot.
		lockEarly []int
		// wantInactive asserts that some row went inactive before the
		// growth.
		wantInactive bool
	}{
		{name: "one-lock", k0: 5, kNew: 2, lockEarly: []int{1}},
		{name: "mostly-locked", k0: 10, kNew: 2, lockEarly: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, wantInactive: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			growMatchesFresh(t, tc.k0, tc.kNew, tc.lockEarly, tc.wantInactive)
		})
	}
}

func growMatchesFresh(t *testing.T, k0, kNew int, lockEarly []int, wantInactive bool) {
	const (
		frameLen = 6
		maxSlots = 24
	)
	k2 := k0 + kNew
	src := prng.NewSource(0x6120)
	taps := randomTaps(k2, src)
	est := randomEstimates(k2, frameLen, src)
	drv := &sessionDriver{k: k2, frameLen: frameLen, src: src}
	rows := make([]bits.Vector, 0, 8)
	obss := make([][]complex128, 0, 8)
	for s := 0; s < 8; s++ {
		row, obs := drv.slot()
		if s < 4 {
			// Pre-growth slots: the latecomers are silent.
			for i := k0; i < k2; i++ {
				row[i] = false
			}
		}
		rows = append(rows, row)
		obss = append(obss, obs)
	}

	grown := NewSession()
	defer grown.Close()
	grown.Begin(k0, frameLen, maxSlots, 1, 0, taps[:k0])
	grown.InitPositions(est[:k0])
	fresh := NewSession()
	defer fresh.Close()
	fresh.Begin(k2, frameLen, maxSlots, 1, 0, taps)
	fresh.InitPositions(est)

	locked := make([]bool, k2)
	const base = 0x9120
	for s := 0; s < 4; s++ {
		grown.AppendSlot(rows[s][:k0], obss[s])
		fresh.AppendSlot(rows[s], obss[s])
		gm, fm := make([]float64, k0), make([]float64, k2)
		ga, fa := make([]bool, k0), make([]bool, k2)
		grown.DecodeSlot(s+1, locked[:k0], base, gm, ga)
		fresh.DecodeSlot(s+1, locked, base, fm, fa)
		for i := 0; i < k0; i++ {
			if gm[i] != fm[i] || ga[i] != fa[i] {
				t.Fatalf("pre-growth slot %d tag %d diverged", s+1, i)
			}
		}
		if s == 1 {
			for _, i := range lockEarly {
				locked[i] = true
			}
		}
	}
	inactive := 0
	for row := 0; row < grown.g.L; row++ {
		if len(grown.g.rowActive[row]) == 0 {
			inactive++
		}
	}
	if wantInactive && inactive == 0 {
		t.Fatal("no row went inactive before the growth")
	}
	grown.Grow(taps[k0:], est[k0:])
	if grown.Slots() != fresh.Slots() {
		t.Fatalf("slot counts diverged: %d vs %d", grown.Slots(), fresh.Slots())
	}
	for s := 4; s < 8; s++ {
		grown.AppendSlot(rows[s], obss[s])
		fresh.AppendSlot(rows[s], obss[s])
		decodeCompare(t, grown, fresh, s+1, locked, base, k2, frameLen, 0)
		if s == 5 {
			locked[k0] = true // lock a latecomer too
		}
	}
	for i := 0; i < k2; i++ {
		if d := grown.Degree(i); d != fresh.Degree(i) {
			t.Fatalf("degree diverged for tag %d: %d vs %d", i, d, fresh.Degree(i))
		}
	}
	for p := 0; p < frameLen; p++ {
		if math.IsNaN(grown.PosError(p)) {
			t.Fatalf("position %d error is NaN", p)
		}
	}
}

// TestSessionTreeScanCutoverIdentical pins the argmax cutover to the
// active tag count: a transfer that starts in tree mode (70 unlocked
// tags), drops to the scan when 50 of them lock, and returns to the
// tree when Grow admits 50 more must decode exactly — margins,
// ambiguity flags, bits and errors — as the same transfer scanning
// throughout. (gain desc, index asc) is a total order, so both
// structures pick the same flip every time.
func TestSessionTreeScanCutoverIdentical(t *testing.T) {
	const (
		k0       = 70
		kNew     = 50
		k2       = k0 + kNew
		frameLen = 5
		maxSlots = 12
		base     = 0x7EE5
	)
	src := prng.NewSource(0xC07)
	taps := randomTaps(k2, src)
	est := randomEstimates(k2, frameLen, src)
	rows, obss := scriptSlots(k2, frameLen, maxSlots, 0xC08)

	type record struct {
		margins []float64
		amb     []bool
		bits    []bool
		errs    []float64
	}
	run := func() (out []record, modes []bool) {
		s := NewSession()
		defer s.Close()
		s.Begin(k0, frameLen, maxSlots, 1, 2, taps[:k0])
		s.InitPositions(est[:k0])
		locked := make([]bool, k2)
		for slot := 1; slot <= maxSlots; slot++ {
			if slot == 7 {
				s.Grow(taps[k0:], est[k0:])
			}
			k := s.k
			rec := record{margins: make([]float64, k), amb: make([]bool, k)}
			s.AppendSlot(rows[slot-1][:k], obss[slot-1])
			s.DecodeSlot(slot, locked[:k], base, rec.margins, rec.amb)
			modes = append(modes, s.states[0].useTree)
			for p := 0; p < frameLen; p++ {
				rec.bits = append(rec.bits, s.PosBits(p)...)
				rec.errs = append(rec.errs, s.PosError(p))
			}
			out = append(out, rec)
			if slot == 3 {
				for i := 20; i < k0; i++ {
					locked[i] = true
				}
			}
		}
		return out, modes
	}
	tree, modes := run()
	if want := []bool{true, true, true, false, false, false, true}; !reflect.DeepEqual(modes[:len(want)], want) {
		t.Fatalf("argmax modes per slot %v, want the tree, then the scan, then the tree again (%v…)", modes, want)
	}
	defer func(c int) { treeCutoverK = c }(treeCutoverK)
	treeCutoverK = math.MaxInt
	scan, _ := run()
	if !reflect.DeepEqual(tree, scan) {
		for slot := range tree {
			if !reflect.DeepEqual(tree[slot], scan[slot]) {
				t.Fatalf("slot %d: tree-mode decode diverged from the scan:\n tree %+v\n scan %+v", slot+1, tree[slot], scan[slot])
			}
		}
	}
}

package bp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
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
// Both sessions run the same code path on the same inputs, so every
// value must match exactly.
func decodeCompare(t *testing.T, a, b *Session, slot int, locked []bool, base uint64, k, frameLen int) {
	t.Helper()
	am, bm := make([]float64, k), make([]float64, k)
	aa, ba := make([]bool, k), make([]bool, k)
	a.DecodeSlot(slot, locked, base, am, aa)
	b.DecodeSlot(slot, locked, base, bm, ba)
	for i := 0; i < k; i++ {
		if am[i] != bm[i] || aa[i] != ba[i] {
			t.Fatalf("slot %d tag %d: margins/ambiguity diverged: (%v,%v) vs (%v,%v)", slot, i, am[i], aa[i], bm[i], ba[i])
		}
	}
	for p := 0; p < frameLen; p++ {
		if a.PosError(p) != b.PosError(p) {
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

// verifyTol is verifyState's relative tolerance.
const verifyTol = 1e-9

// verifyState checks every position's cached state against a
// from-scratch recompute from the session's observations, current bits
// and current taps, failing on a disagreement beyond verifyTol. What it
// checks follows the last slot's kind. After a row slot, the row state
// must be current: the unlocked tags' S-sums, flip signs and gains, the
// residual, and PosError against a from-scratch ‖y − D·H·b‖² over the
// live rows. After a Gram slot, which keeps gains only, the unlocked
// tags' gains and PosError. Every locked tag's gain must be −∞ either
// way. Call it after a DecodeSlot (or after a mutation that changed
// nothing): RetapTags, Retire and RetireTag invalidate the cached state,
// and only the next decode re-derives it. Retired rows and inactive rows
// (every collider locked) are skipped: their cached residual entries
// are dead by design. It also checks the armed drift bookkeeping
// against a recount (verifyDrift). Exact equality is not required:
// appended rows fold into the cached state in arrival order, a
// different float association than the rebuild.
func verifyState(t *testing.T, s *Session, locked []bool, what string) {
	t.Helper()
	rows := !s.gramOn
	if rows && !s.stateValid {
		t.Fatalf("%s: row state is not current after a row slot; verify after the next DecodeSlot", what)
	}
	if !rows && s.stateValid {
		t.Fatalf("%s: row state marked current after a Gram slot", what)
	}
	g := &s.g
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		myBits := s.PosBits(p)
		for i := 0; i < s.k; i++ {
			if locked[i] {
				if !math.IsInf(st.gain[i], -1) {
					t.Fatalf("%s: position %d locked tag %d gain %v, want -Inf", what, p, i, st.gain[i])
				}
				continue
			}
			var sum complex128
			for _, row := range g.colRows[i] {
				sum += scratchRow(s, p, row, myBits)
			}
			sign := 1.0
			if myBits[i] {
				sign = -1
			}
			corr := g.tapRe[i]*real(sum) + g.tapIm[i]*imag(sum)
			want := 2*corr*sign - g.wPow[i]
			if !closeTo(st.gain[i], want, verifyTol) {
				t.Fatalf("%s: position %d tag %d gain %v, want %v", what, p, i, st.gain[i], want)
			}
			if !rows {
				continue
			}
			if !closeTo(real(st.sum[i]), real(sum), verifyTol) || !closeTo(imag(st.sum[i]), imag(sum), verifyTol) {
				t.Fatalf("%s: position %d tag %d sum %v, want %v", what, p, i, st.sum[i], sum)
			}
			if st.bSign[i] != sign {
				t.Fatalf("%s: position %d tag %d flip sign %v, want %v", what, p, i, st.bSign[i], sign)
			}
		}
		for row := g.retired; rows && row < g.L; row++ {
			if len(g.rowActive[row]) == 0 {
				continue
			}
			want := scratchRow(s, p, row, myBits)
			got := st.residual[row]
			if !closeTo(real(got), real(want), verifyTol) || !closeTo(imag(got), imag(want), verifyTol) {
				t.Fatalf("%s: position %d row %d residual %v, want %v", what, p, row, got, want)
			}
		}
		if got, want := s.PosError(p), scratchError(s, p); !closeTo(got, want, verifyTol) {
			t.Fatalf("%s: position %d error %v, want %v", what, p, got, want)
		}
	}
	verifyDrift(t, s, what)
}

// verifyDrift recounts the armed drift bookkeeping from its per-row
// and per-tag entries and fails where a running sum disagrees beyond
// verifyTol: the pooled drift and signal totals against the live rows'
// driftEnergy and rowPower (TrackDrift), and each tag's ledger sums and
// orphan energy against its in-window rows (TrackTagDrift).
// DriftFraction and DriftFractionTag must then equal the ratios of the
// recounts.
func verifyDrift(t *testing.T, s *Session, what string) {
	t.Helper()
	g := &s.g
	if s.trackDrift {
		drift, sig := 0.0, 0.0
		for row := g.retired; row < g.L; row++ {
			drift += s.driftEnergy[row]
			sig += s.rowPower[row]
		}
		if !closeTo(s.driftTotal, drift, verifyTol) || !closeTo(s.sigTotal, sig, verifyTol) {
			t.Fatalf("%s: drift/signal totals %v/%v, recount %v/%v", what, s.driftTotal, s.sigTotal, drift, sig)
		}
		want := 0.0
		if sig > 0 && drift > 0 {
			want = drift / sig
		}
		if got := s.DriftFraction(); !closeTo(got, want, verifyTol) {
			t.Fatalf("%s: DriftFraction %v, recount %v", what, got, want)
		}
	}
	if !s.trackTagDrift {
		return
	}
	for i := 0; i < s.k; i++ {
		rows := g.colRows[i]
		led := s.tagLedger[i]
		if len(led) != 2*len(rows) {
			t.Fatalf("%s: tag %d ledger holds %d rows, want %d", what, i, len(led)/2, len(rows))
		}
		snap, sig, orphan := 0.0, 0.0, 0.0
		for x, row := range rows {
			snap += led[2*x]
			sig += led[2*x+1]
			orphan += s.orphan[row]
		}
		if !closeTo(s.tagSnapSum[i], snap, verifyTol) || !closeTo(s.tagSig[i], sig, verifyTol) || !closeTo(s.tagOrphan[i], orphan, verifyTol) {
			t.Fatalf("%s: tag %d snap/sig/orphan sums %v/%v/%v, recount %v/%v/%v",
				what, i, s.tagSnapSum[i], s.tagSig[i], s.tagOrphan[i], snap, sig, orphan)
		}
		want := 0.0
		if bad := max(0, s.tagCum[i]*float64(len(rows))-snap) + orphan; len(rows) > 0 && sig > 0 && bad > 0 {
			want = bad / sig
		}
		if got := s.DriftFractionTag(i); !closeTo(got, want, verifyTol) {
			t.Fatalf("%s: tag %d DriftFractionTag %v, recount %v", what, i, got, want)
		}
	}
}

// scratchError is ‖y − D·H·b‖² over the live rows at position p's
// current bits, from the observations and taps alone.
func scratchError(s *Session, p int) float64 {
	g := &s.g
	b := s.PosBits(p)
	e := 0.0
	for row := g.retired; row < g.L; row++ {
		x := s.ys[p][row]
		for _, i := range g.rowCols[row] {
			if b[i] {
				x -= g.taps[i]
			}
		}
		e += real(x)*real(x) + imag(x)*imag(x)
	}
	return e
}

// stateWords flattens everything a decode reads from the cached
// per-position state — residuals, S-sums, gains, flip signs, bits —
// plus the graph's row window and taps into float bit patterns, so two
// snapshots compare bitwise.
func stateWords(s *Session) []uint64 {
	var w []uint64
	c := func(v complex128) { w = append(w, math.Float64bits(real(v)), math.Float64bits(imag(v))) }
	w = append(w, uint64(s.g.L), uint64(s.g.retired))
	for _, h := range s.g.taps {
		c(h)
	}
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		for _, v := range st.residual {
			c(v)
		}
		for i := 0; i < s.k; i++ {
			c(st.sum[i])
			w = append(w, math.Float64bits(st.gain[i]), math.Float64bits(st.bSign[i]))
		}
		for _, b := range s.PosBits(p) {
			if b {
				w = append(w, 1)
			} else {
				w = append(w, 0)
			}
		}
	}
	return w
}

// TestSessionMutationsInvalidate pins the one update rule for the
// session's model changes. On a warm, valid session, a RetapTags that
// moves one tap, a Retire of one row and a RetireTag of one row each
// invalidate the cached state, and the next DecodeSlot rebuilds it
// onto a from-scratch recompute. The same calls with nothing to change
// are no-ops: the state stays valid and bitwise unchanged.
func TestSessionMutationsInvalidate(t *testing.T) {
	const (
		k        = 7
		frameLen = 5
		maxSlots = 16
		base     = 0x1AD
	)
	src := prng.NewSource(0x1A7E)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0x1A7F)

	// firstRow returns an unlocked tag with at least two live rows and
	// the first of them.
	firstRow := func(t *testing.T, s *Session, locked []bool) (tag, row int) {
		for i := 0; i < k; i++ {
			if !locked[i] && s.Degree(i) >= 2 {
				return i, s.g.colRows[i][0]
			}
		}
		t.Fatal("no unlocked tag has two live rows")
		return 0, 0
	}
	retap := func(s *Session, moved int) {
		next := append([]complex128(nil), s.g.taps...)
		for i := 0; i < moved; i++ {
			next[k-1-i] *= complex(1.01, 0.005)
		}
		retapAll(s, next)
	}
	cases := []struct {
		name string
		// mutate applies the call under test and returns the count it
		// reports (taps moved for RetapTags, rows for the retires).
		mutate  func(t *testing.T, s *Session, locked []bool) int
		changes int
	}{
		{"retap-one-tap", func(t *testing.T, s *Session, _ []bool) int { retap(s, 1); return 1 }, 1},
		{"retire-one-row", func(t *testing.T, s *Session, _ []bool) int { return s.Retire(s.Retired() + 1) }, 1},
		{"retire-tag-one-row", func(t *testing.T, s *Session, locked []bool) int {
			tag, row := firstRow(t, s, locked)
			return s.RetireTag(tag, row+1)
		}, 1},
		{"retap-no-tap", func(t *testing.T, s *Session, _ []bool) int { retap(s, 0); return 0 }, 0},
		{"retire-no-row", func(t *testing.T, s *Session, _ []bool) int { return s.Retire(s.Retired()) }, 0},
		{"retire-tag-no-row", func(t *testing.T, s *Session, locked []bool) int {
			tag, row := firstRow(t, s, locked)
			return s.RetireTag(tag, row)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession()
			s.Begin(k, frameLen, maxSlots, 2, taps)
			s.TrackDrift(true)
			s.TrackTagDrift(true)
			s.InitPositions(est)
			locked := make([]bool, k)
			locked[1] = true
			slot := driveSlots(t, s, rows, obss, 1, 6, locked, base)
			verifyState(t, s, locked, "warm session")
			before := stateWords(s)

			if got := tc.mutate(t, s, locked); got != tc.changes {
				t.Fatalf("call reported %d changes, want %d", got, tc.changes)
			}
			if tc.changes == 0 {
				if !s.stateValid {
					t.Fatal("a call that changed nothing invalidated the cached state")
				}
				after := stateWords(s)
				if len(after) != len(before) {
					t.Fatalf("no-op changed the state's shape: %d words, was %d", len(after), len(before))
				}
				for x := range before {
					if before[x] != after[x] {
						t.Fatalf("no-op changed state word %d: %#x, was %#x", x, after[x], before[x])
					}
				}
				verifyState(t, s, locked, "after the no-op")
			} else if s.stateValid {
				t.Fatal("the call changed the model but left the cached state valid")
			}
			driveSlots(t, s, rows, obss, slot, 1, locked, base)
			verifyState(t, s, locked, "after the next decode")
		})
	}
}

// TestSessionRetapAllKeepsStateConsistent drives RetapTags through each
// kind of move — a minority of unlocked taps, a locked tag's tap, a
// majority of taps — on a session with a mid-transfer lock. After each
// retap the next DecodeSlot rebuilds, and its state must match a
// from-scratch recompute under the new taps.
func TestSessionRetapAllKeepsStateConsistent(t *testing.T) {
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
	s.Begin(k, frameLen, maxSlots, restarts, taps)
	s.TrackDrift(true)
	s.TrackTagDrift(true)
	s.InitPositions(est)

	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	const base = 0xBA5E
	slot := 1
	decode := func() {
		row, obs := drv.slot()
		appendSlot(s, row, obs)
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		slot++
	}
	for slot <= 4 {
		if slot == 3 {
			locked[3] = true // a mid-transfer CRC lock, folded next decode
		}
		decode()
	}

	// A minority of unlocked taps moves.
	newTaps := append([]complex128(nil), taps...)
	newTaps[0] *= complex(1.02, 0.01)
	newTaps[5] *= complex(0.97, -0.02)
	retapAll(s, newTaps)
	decode()
	verifyState(t, s, locked, "after a minority retap")

	for slot <= 8 {
		decode()
	}
	newTaps[6] *= complex(0.99, 0.015)
	retapAll(s, newTaps)
	decode()
	verifyState(t, s, locked, "after a retap on the warm state")

	// A locked tag's tap moves: its contribution lives in the locked
	// base, which the rebuild re-derives.
	newTaps[3] *= complex(1.01, 0)
	retapAll(s, newTaps)
	decode()
	verifyState(t, s, locked, "after a locked tag's retap")

	// Every tap moves.
	for i := range newTaps {
		newTaps[i] *= complex(1.01, -0.005)
	}
	retapAll(s, newTaps)
	decode()
	verifyState(t, s, locked, "after a majority retap")

	// Three unlocked tags leave most rows active, one leaves most rows
	// inactive: the rebuild takes its column-major and its row-sweep
	// residual build respectively. With a single unlocked tag a restart
	// would replace pass 0's rebuilt state with one built from it, so
	// that case runs without restarts and keeps the rebuilt state.
	t.Run("mostly-locked", func(t *testing.T) { retapAllMostlyLocked(t, 3, 2, false) })
	t.Run("one-unlocked", func(t *testing.T) { retapAllMostlyLocked(t, 1, 0, true) })
}

// retapAllMostlyLocked moves one unlocked tap every slot where the
// active set is a small strict subset of K: all but `unlocked` of 16
// tags lock at slot 3, so the rows they alone collide in go inactive
// mid-run and later rows are born inactive. Every decode after a retap
// rebuilds and must land on the recomputed state, and so must the
// decode after a locked tag's move. sparse asserts that at most half
// the live rows are active at the end.
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
	s := NewSession()
	s.Begin(k, frameLen, maxSlots, restarts, taps)
	s.InitPositions(est)

	locked := make([]bool, k)
	cur := append([]complex128(nil), taps...)
	slot := 1
	for slot <= 20 {
		if slot > 6 {
			cur[slot%unlocked] *= complex(1.01, 0.005)
			retapAll(s, cur)
		}
		slot = driveSlots(t, s, rows, obss, slot, 1, locked, base)
		verifyState(t, s, locked, fmt.Sprintf("slot %d", slot-1))
		if slot == 4 {
			for i := unlocked; i < k; i++ {
				locked[i] = true
			}
		}
	}
	g := &s.g
	live, active := g.L-g.retired, len(g.activeRows)
	if active == live || 2*active <= live != sparse || len(g.activeTags) != unlocked {
		t.Fatalf("script left %d of %d live rows active and %d active tags, want %d (sparse %v)", active, live, len(g.activeTags), unlocked, sparse)
	}

	cur[k-1] *= complex(1.01, 0)
	retapAll(s, cur)
	driveSlots(t, s, rows, obss, slot, 1, locked, base)
	verifyState(t, s, locked, "after a locked tag's retap with most tags locked")
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
	grown.Begin(k0, frameLen, maxSlots, 0, taps[:k0])
	grown.InitPositions(est[:k0])
	fresh := NewSession()
	fresh.Begin(k2, frameLen, maxSlots, 0, taps)
	fresh.InitPositions(est)

	locked := make([]bool, k2)
	const base = 0x9120
	for s := 0; s < 4; s++ {
		appendSlot(grown, rows[s][:k0], obss[s])
		appendSlot(fresh, rows[s], obss[s])
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
		appendSlot(grown, rows[s], obss[s])
		appendSlot(fresh, rows[s], obss[s])
		decodeCompare(t, grown, fresh, s+1, locked, base, k2, frameLen)
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

// TestGoldenLargeKDecode pins a transfer past the paper's K: 70
// unlocked tags for three slots, then tags 20–69 lock, then Grow admits
// 50 more at slot 7 (120 tags, 70 unlocked), and from slot 9 on three
// taps move a little every slot, so each of those slots rebuilds every
// position. A SHA-256 over every slot's margins, ambiguity flags,
// per-position bits and per-position errors (float bit patterns) must
// match the pinned digest. With the restart certificate, slots 1–3 keep
// the full fan's bits on every tag with rows, flags and errors to an
// ulp; the full fan had adopted restarts that differ only on tags with
// no rows yet, by a residual norm an ulp lower. The lock of tags 20–69
// after slot 3 freezes those bits, so the transfer diverges from slot 4
// on.
func TestGoldenLargeKDecode(t *testing.T) {
	const (
		k0       = 70
		kNew     = 50
		k2       = k0 + kNew
		frameLen = 5
		maxSlots = 12
		base     = 0x7EE5
		golden   = "400563e1622d7fda6bb7c761d2a86d0a0e756bbfb5855ab464eb7e820b425018"
	)
	src := prng.NewSource(0xC07)
	taps := randomTaps(k2, src)
	est := randomEstimates(k2, frameLen, src)
	rows, obss := scriptSlots(k2, frameLen, maxSlots, 0xC08)

	s := NewSession()
	s.Begin(k0, frameLen, maxSlots, 2, taps[:k0])
	s.InitPositions(est[:k0])
	locked := make([]bool, k2)
	cur := append([]complex128(nil), taps...)
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	flag := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for slot := 1; slot <= maxSlots; slot++ {
		if slot == 7 {
			s.Grow(taps[k0:], est[k0:])
		}
		k := s.k
		if slot >= 9 {
			for i := 0; i < 3; i++ {
				cur[i] *= complex(0.999, 0.01)
			}
			retapAll(s, cur[:k])
		}
		margins, amb := make([]float64, k), make([]bool, k)
		appendSlot(s, rows[slot-1][:k], obss[slot-1])
		s.DecodeSlot(slot, locked[:k], base, margins, amb)
		for i := 0; i < k; i++ {
			word(math.Float64bits(margins[i]))
			flag(amb[i])
		}
		for p := 0; p < frameLen; p++ {
			for _, b := range s.PosBits(p) {
				flag(b)
			}
			word(math.Float64bits(s.PosError(p)))
		}
		if slot == 3 {
			for i := 20; i < k0; i++ {
				locked[i] = true
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Errorf("digest %s, golden %s", got, golden)
	}
}

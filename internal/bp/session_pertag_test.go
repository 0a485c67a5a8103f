package bp

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// TestSessionRetireTagKeepsStateConsistent drives RetireTag interleaved
// with Grow, RetapAll, global Retire and mid-transfer locks across
// DISTINCT tags, verifying after every step that the incrementally
// patched state matches a from-scratch recompute over the surviving
// model — the retire-order-invariance contract: it must not matter
// which mover aged out first.
func TestSessionRetireTagKeepsStateConsistent(t *testing.T) {
	const (
		k0       = 6
		kNew     = 2
		k2       = k0 + kNew
		frameLen = 7
		maxSlots = 48
		base     = 0x9E1
	)
	src := prng.NewSource(0x3D7B)
	taps := randomTaps(k2, src)
	est := randomEstimates(k2, frameLen, src)
	rows, obss := scriptSlots(k2, frameLen, maxSlots, 0xAB1E)

	s := NewSession()
	defer s.Close()
	s.Begin(k0, frameLen, maxSlots, 1, 2, taps[:k0])
	s.TrackTagDrift(true) // exercise the armed per-tag ledgers throughout
	s.InitPositions(est[:k0])
	locked := make([]bool, k2)

	slot := driveSlots(t, s, rows, obss, 1, 8, locked, base)

	// Patch path: age two distinct tags out on different clocks.
	n0 := s.RetireTag(0, 4)
	verifyState(t, s, locked, 1e-9, "after first RetireTag")
	if n0 == 0 {
		t.Fatal("RetireTag(0, 4) removed nothing — the script never collided tag 0 early, repick the seed")
	}
	s.RetireTag(3, 6)
	verifyState(t, s, locked, 1e-9, "after second RetireTag")

	// Interleave a minority retap (its own patch path), then another
	// tag's retirement on the doubly-patched state.
	newTaps := append([]complex128(nil), taps[:s.k]...)
	newTaps[1] *= complex(1.03, 0.011)
	s.RetapAll(newTaps)
	verifyState(t, s, locked, 1e-9, "after retap")
	s.RetireTag(1, 5)
	verifyState(t, s, locked, 1e-9, "after RetireTag on retapped state")

	// Grow the roster mid-round, decode, then retire rows of an
	// original tag past the growth point.
	s.Grow(taps[k0:], est[k0:])
	slot = driveSlots(t, s, rows, obss, slot, 4, locked, base)
	verifyState(t, s, locked, 1e-9, "after grow")
	s.RetireTag(4, 9)
	verifyState(t, s, locked, 1e-9, "after RetireTag past grow")

	// Lock a tag mid-round; retiring OTHER tags must keep patching.
	locked[2] = true
	slot = driveSlots(t, s, rows, obss, slot, 2, locked, base)
	s.RetireTag(5, slot-4)
	verifyState(t, s, locked, 1e-9, "after RetireTag with a locked neighbor")

	// The locked-tag edge: retiring the locked tag itself falls back to
	// a rebuild (its contribution lives in the locked-base residuals),
	// and the next decode lands back on a consistent state.
	if n := s.RetireTag(2, slot-2); n == 0 {
		t.Fatal("locked-tag RetireTag removed nothing")
	}
	if s.stateValid {
		t.Fatal("locked-tag RetireTag did not take the rebuild fall-back")
	}
	slot = driveSlots(t, s, rows, obss, slot, 2, locked, base)
	verifyState(t, s, locked, 1e-9, "after locked-tag rebuild")

	// Global Retire interleaves with per-tag retirement: rows [0, 3)
	// leave for everyone (tags already aged past them just skip).
	s.Retire(3)
	verifyState(t, s, locked, 1e-9, "after global retire over per-tag holes")
	driveSlots(t, s, rows, obss, slot, 2, locked, base)
	verifyState(t, s, locked, 1e-9, "after decode on the mixed window")
}

// TestSessionRetireTagMatchesRebuild drives two sessions through the
// identical script; one retires tags on the incremental patch path,
// the other is forced onto the rebuild fall-back before every
// RetireTag. Same comparison contract as
// TestSessionRetirePatchMatchesRebuild: margins and errors agree to
// round-off, bits exactly.
func TestSessionRetireTagMatchesRebuild(t *testing.T) {
	const (
		k        = 7
		frameLen = 6
		maxSlots = 40
		window   = 6
		base     = 0x77E2
	)
	src := prng.NewSource(0x5A5A)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0xFA7E)

	mk := func() *Session {
		s := NewSession()
		s.Begin(k, frameLen, maxSlots, 1, 2, taps)
		s.TrackTagDrift(true)
		s.InitPositions(est)
		return s
	}
	patch, rebuild := mk(), mk()
	defer patch.Close()
	defer rebuild.Close()

	// Tags 1 and 4 are the movers: each ages out on its own clock.
	movers := map[int]int{1: window, 4: window + 3}
	locked := make([]bool, k)
	for slot := 1; slot <= 18; slot++ {
		patch.AppendSlot(rows[slot-1], obss[slot-1])
		rebuild.AppendSlot(rows[slot-1], obss[slot-1])
		decodeCompare(t, patch, rebuild, slot, locked, base, k, frameLen, 1e-9)
		if slot == 5 {
			locked[2] = true
		}
		for tag, w := range movers {
			if slot <= w {
				continue
			}
			rebuild.stateValid = false // force the fall-back
			np := patch.RetireTag(tag, slot-w)
			nr := rebuild.RetireTag(tag, slot-w)
			if np != nr {
				t.Fatalf("slot %d tag %d: retired %d vs %d rows", slot, tag, np, nr)
			}
			if np > 0 && !patch.stateValid {
				t.Fatalf("slot %d tag %d: patch session fell back to rebuild", slot, tag)
			}
			if df, dr := patch.DriftFractionTag(tag), rebuild.DriftFractionTag(tag); df != dr {
				t.Fatalf("slot %d tag %d: drift fraction diverged: %v vs %v", slot, tag, df, dr)
			}
		}
	}
}

// TestSessionRetireTagAllRows pins the retire-all-rows-of-one-tag
// edge: a tag stripped of its every collision row is back to knowing
// nothing — degree 0, margin exactly 0, S-sum snapped clean — while
// every other tag's decode continues, and fresh participations rebuild
// the tag's evidence.
func TestSessionRetireTagAllRows(t *testing.T) {
	const (
		k        = 5
		frameLen = 6
		maxSlots = 24
		base     = 0xC0DE
	)
	src := prng.NewSource(0x91F)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0xD06)

	s := NewSession()
	defer s.Close()
	s.Begin(k, frameLen, maxSlots, 1, 1, taps)
	s.TrackTagDrift(true)
	s.InitPositions(est)
	locked := make([]bool, k)
	slot := driveSlots(t, s, rows, obss, 1, 6, locked, base)

	const victim = 2
	if n := s.RetireTag(victim, slot); n == 0 {
		t.Fatal("retire-all removed nothing")
	}
	if d := s.Degree(victim); d != 0 {
		t.Fatalf("tag %d still has degree %d after retire-all", victim, d)
	}
	if f := s.DriftFractionTag(victim); f != 0 {
		t.Fatalf("tag %d drift fraction %v after retire-all, want 0", victim, f)
	}
	verifyState(t, s, locked, 1e-9, "after retire-all of one tag")

	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	s.AppendSlot(rows[slot-1], obss[slot-1])
	s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
	for p := 0; p < frameLen; p++ {
		if math.IsNaN(s.PosError(p)) {
			t.Fatalf("position %d error is NaN after retire-all", p)
		}
	}
	if !rows[slot-1][victim] && minMargin[victim] != 0 {
		t.Fatalf("evidence-free tag margin %v, want exactly 0", minMargin[victim])
	}
	slot++
	driveSlots(t, s, rows, obss, slot, 4, locked, base)
	verifyState(t, s, locked, 1e-9, "after the tag re-accumulates evidence")
}

// TestSessionPerTagParallelismEquivalence pins that per-tag-windowed
// decoding is byte-identical at any position fan-out: a scripted
// two-mover RetireTag schedule at Parallelism 1 and 4 must agree bit
// for bit, exactly like the global-window and unwindowed sessions.
func TestSessionPerTagParallelismEquivalence(t *testing.T) {
	const (
		k        = 9
		frameLen = 8
		maxSlots = 40
		base     = 0xE77
	)
	src := prng.NewSource(0xB0B)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0x5EED5)

	mk := func(par int) *Session {
		s := NewSession()
		s.Begin(k, frameLen, maxSlots, par, 2, taps)
		s.TrackTagDrift(true)
		s.InitPositions(est)
		return s
	}
	serial, parallel := mk(1), mk(4)
	defer serial.Close()
	defer parallel.Close()

	movers := map[int]int{0: 7, 6: 9}
	locked := make([]bool, k)
	for slot := 1; slot <= 22; slot++ {
		serial.AppendSlot(rows[slot-1], obss[slot-1])
		parallel.AppendSlot(rows[slot-1], obss[slot-1])
		decodeCompare(t, serial, parallel, slot, locked, base, k, frameLen, 0)
		if slot == 6 {
			locked[3] = true
		}
		for tag, w := range movers {
			if slot <= w {
				continue
			}
			ns := serial.RetireTag(tag, slot-w)
			np := parallel.RetireTag(tag, slot-w)
			if ns != np {
				t.Fatalf("slot %d tag %d: retired %d vs %d rows across parallelism", slot, tag, ns, np)
			}
		}
	}
}

// verifySoftState is verifyState's weight-aware sibling: it recomputes
// every position's residual, S-sums and gains under the graph's soft
// per-(row, tag) weights (stale rows of tag i carry α_i·h_i) and fails
// on divergence — the white-box contract SoftRetireTag's rebuilds must
// land on. Inactive rows' residual entries are dead by design, as in
// verifyState.
func verifySoftState(t *testing.T, s *Session, locked []bool, tol float64, what string) {
	t.Helper()
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
					want -= complex(g.alphaAt(row, i), 0) * g.taps[i]
				}
			}
			got := st.residual[row]
			if !closeTo(real(got), real(want), tol) || !closeTo(imag(got), imag(want), tol) {
				t.Fatalf("%s: position %d row %d residual %v, want %v", what, p, row, got, want)
			}
		}
		for i := 0; i < s.k; i++ {
			if locked[i] {
				continue
			}
			var sum complex128
			for _, row := range g.colRows[i] {
				sum += complex(g.alphaAt(row, i), 0) * st.residual[row]
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
	}
}

// TestSessionSoftWeightStateConsistent drives the soft per-tag mode:
// SoftRetireTag down-weights stale rows instead of removing them, the
// effective |h|²·w constants shrink to α²·stale + fresh, and every
// rebuild must land on the weighted model exactly. Also pins the decay
// property the mode rests on: with drift banked against the mover, its
// α strictly decreases as more drift accumulates.
func TestSessionSoftWeightStateConsistent(t *testing.T) {
	const (
		k        = 6
		frameLen = 6
		maxSlots = 32
		window   = 5
		mover    = 1
		base     = 0xA17A
	)
	src := prng.NewSource(0xF1E)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0x50F7)

	s := NewSession()
	defer s.Close()
	s.Begin(k, frameLen, maxSlots, 1, 2, taps)
	s.TrackTagDrift(true)
	s.InitPositions(est)
	locked := make([]bool, k)

	cur := append([]complex128(nil), taps...)
	lastAlpha, aged := 1.0, false
	slot := 1
	for ; slot <= 16; slot++ {
		// The mover drifts every slot; everyone else is parked.
		cur[mover] *= complex(0.995, 0.02)
		s.RetapAll(cur)
		s.AppendSlot(rows[slot-1], obss[slot-1])
		minMargin := make([]float64, k)
		ambiguous := make([]bool, k)
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		if slot > window {
			n := s.SoftRetireTag(mover, slot-window)
			aged = aged || n > 0
			if !aged {
				continue // the mover missed the earliest slots entirely
			}
			if s.stateValid {
				t.Fatalf("slot %d: SoftRetireTag left the cached state valid", slot)
			}
			alpha := s.g.softAlpha[mover]
			if alpha >= lastAlpha {
				t.Fatalf("slot %d: soft alpha %v did not decay below %v as drift accumulated", slot, alpha, lastAlpha)
			}
			if alpha <= 0 {
				t.Fatalf("slot %d: soft alpha %v outside (0, 1)", slot, alpha)
			}
			lastAlpha = alpha
			if s.StaleRows(mover) == 0 {
				t.Fatalf("slot %d: no stale rows after SoftRetireTag", slot)
			}
		}
	}
	if !aged {
		t.Fatal("the mover never aged a row — repick the script seed")
	}
	// One more decode to rebuild, then verify the weighted model.
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	s.AppendSlot(rows[slot-1], obss[slot-1])
	s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
	verifySoftState(t, s, locked, 1e-9, "after soft aging")

	// Parked tags must be untouched by the mover's soft aging.
	for i := 0; i < k; i++ {
		if i != mover && s.StaleRows(i) != 0 {
			t.Fatalf("parked tag %d has %d stale rows", i, s.StaleRows(i))
		}
	}

	// Mixing modes on one tag is legal: a hard RetireTag spanning the
	// soft-aged prefix must pop only the fresh rows' ledger entries
	// (the stale ones left the ledger when they went stale) and leave
	// the drift accounting consistent.
	stale := s.StaleRows(mover)
	freshBefore := len(s.tagLedger[mover]) / 2
	n := s.RetireTag(mover, slot-2)
	if n <= stale {
		t.Fatalf("hard retire across the stale prefix removed %d rows, want > the %d stale ones", n, stale)
	}
	if got := len(s.tagLedger[mover]) / 2; got != freshBefore-(n-stale) {
		t.Fatalf("ledger holds %d rows after mixed retire, want %d", got, freshBefore-(n-stale))
	}
	if s.StaleRows(mover) != 0 {
		t.Fatalf("stale rows survived a hard retire past the cut: %d", s.StaleRows(mover))
	}
	if f := s.DriftFractionTag(mover); f < 0 || math.IsNaN(f) {
		t.Fatalf("drift fraction %v after mixed retire", f)
	}
	slot++
	driveSlots(t, s, rows, obss, slot, 2, locked, base)
	verifySoftState(t, s, locked, 1e-9, "after mixed soft+hard retire")
}

// TestSessionPerTagSteadyStateAllocationFree extends the allocation
// regression to the per-tag window: on a WARM session — one that has
// already run a transfer of this shape, so every row's adjacency
// backing and every tag's drift ledger holds its capacity — the
// per-slot cycle RetapAll (mover drift) + AppendSlot + DecodeSlot +
// RetireTag must not touch the heap. (Unlike the global window, whose
// retired rows recycle their backing within the round, a per-tag round
// keeps every row live for the parked tags, so the first transfer
// grows storage and the warmth lives across transfers — the simulator
// reuses one Session per trial worker for exactly this reason.)
func TestSessionPerTagSteadyStateAllocationFree(t *testing.T) {
	const (
		k        = 8
		frameLen = 8
		window   = 6
		mover    = 2
		maxSlots = 600
		base     = 0x1CE
	)
	src := prng.NewSource(0xFAB)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, 32, 0xBEAD)

	s := NewSession()
	defer s.Close()
	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	cur := append([]complex128(nil), taps...)

	slot := 1
	cycle := func() {
		i := (slot - 1) % len(rows)
		cur[mover] *= complex(0.9995, 0.002)
		s.RetapAll(cur)
		s.AppendSlot(rows[i], obss[i])
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		if slot > window {
			s.RetireTag(mover, slot-window)
		}
		slot++
	}
	begin := func() {
		s.Begin(k, frameLen, maxSlots, 1, 2, taps)
		s.TrackTagDrift(true)
		s.InitPositions(est)
		copy(cur, taps)
		slot = 1
	}
	// First transfer: grow every backing the steady state will touch.
	begin()
	for i := 0; i < 150; i++ {
		cycle()
	}
	// Warm transfer of the same shape: the measured regime.
	begin()
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm per-tag slot cycle allocates %v times, want 0", allocs)
	}
	if s.Degree(mover) > window+2 {
		t.Fatalf("mover degree %d never bounded by its %d-slot window", s.Degree(mover), window)
	}
}

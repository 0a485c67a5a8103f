package bp

import (
	"testing"

	"repro/internal/prng"
)

// TestSessionRetireTagKeepsStateConsistent drives RetireTag
// interleaved with Grow, RetapTags, global Retire and mid-transfer locks
// across DISTINCT tags. Each removal invalidates the cached state, and
// after the next DecodeSlot the rebuilt state must match a
// from-scratch recompute over the surviving model, per-tag drift
// ledgers and orphan energy included — the retire-order-invariance
// contract: it must not matter which mover aged out first.
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
	s.Begin(k0, frameLen, maxSlots, 2, taps[:k0])
	s.TrackTagDrift(true) // exercise the armed per-tag ledgers throughout
	s.InitPositions(est[:k0])
	locked := make([]bool, k2)

	slot := driveSlots(t, s, rows, obss, 1, 8, locked, base)
	settle := func(what string) {
		t.Helper()
		slot = driveSlots(t, s, rows, obss, slot, 1, locked, base)
		verifyState(t, s, locked, what)
	}

	// Age two distinct tags out on different clocks. The first removal
	// pops exactly its rows' ledger entries and leaves every other tag's
	// rows and ledger untouched.
	degBefore := make([]int, k0)
	ledBefore := make([]int, k0)
	for i := range degBefore {
		degBefore[i] = s.Degree(i)
		ledBefore[i] = len(s.tagLedger[i])
	}
	n := s.RetireTag(0, 4)
	if n == 0 {
		t.Fatal("RetireTag(0, 4) removed nothing — the script never collided tag 0 early, repick the seed")
	}
	for i := range degBefore {
		wantDeg, wantLed := degBefore[i], ledBefore[i]
		if i == 0 {
			wantDeg, wantLed = wantDeg-n, wantLed-2*n
		}
		if s.Degree(i) != wantDeg || len(s.tagLedger[i]) != wantLed {
			t.Fatalf("tag %d: degree %d and ledger %d after RetireTag(0, 4) of %d rows, want %d and %d",
				i, s.Degree(i), len(s.tagLedger[i]), n, wantDeg, wantLed)
		}
	}
	settle("after first RetireTag")
	s.RetireTag(3, 6)
	settle("after second RetireTag")

	// Interleave a minority retap, then another tag's retirement.
	newTaps := append([]complex128(nil), taps[:s.k]...)
	newTaps[1] *= complex(1.03, 0.011)
	retapAll(s, newTaps)
	settle("after retap")
	s.RetireTag(1, 5)
	settle("after RetireTag on retapped state")

	// Grow the roster mid-round, decode, then retire rows of an
	// original tag past the growth point.
	s.Grow(taps[k0:], est[k0:])
	slot = driveSlots(t, s, rows, obss, slot, 4, locked, base)
	verifyState(t, s, locked, "after grow")
	s.RetireTag(4, 9)
	settle("after RetireTag past grow")

	// Lock a tag mid-round, then retire another tag.
	locked[2] = true
	slot = driveSlots(t, s, rows, obss, slot, 2, locked, base)
	s.RetireTag(5, slot-4)
	settle("after RetireTag with a locked neighbor")

	// Retire the locked tag itself: its contribution lives in every
	// position's residual, which the rebuild re-derives.
	if n := s.RetireTag(2, slot-2); n == 0 {
		t.Fatal("locked-tag RetireTag removed nothing")
	}
	settle("after locked-tag RetireTag")

	// Global Retire interleaves with per-tag retirement: every row
	// through slot−3 leaves for everyone. Tags already aged past a row
	// skip it, and its survivors give back the orphan energy the
	// per-tag retirements banked in it.
	if s.Retire(slot-3) == 0 {
		t.Fatal("global retire removed nothing")
	}
	settle("after global retire over per-tag holes")
	driveSlots(t, s, rows, obss, slot, 2, locked, base)
	verifyState(t, s, locked, "after decode on the mixed window")
}

// TestSessionRetireTagAllRows pins the retire-all-rows-of-one-tag
// edge: a tag stripped of its every collision row is back to knowing
// nothing — degree 0, drift fraction 0, and after the rebuild a margin
// of exactly 0 — while every other tag's decode continues, and fresh
// participations rebuild the tag's evidence.
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
	s.Begin(k, frameLen, maxSlots, 1, taps)
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

	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	appendSlot(s, rows[slot-1], obss[slot-1])
	s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
	verifyState(t, s, locked, "after retire-all of one tag")
	if !rows[slot-1][victim] && minMargin[victim] != 0 {
		t.Fatalf("evidence-free tag margin %v, want exactly 0", minMargin[victim])
	}
	slot++
	driveSlots(t, s, rows, obss, slot, 4, locked, base)
	verifyState(t, s, locked, "after the tag re-accumulates evidence")
}

// TestSessionPerTagSteadyStateAllocationFree extends the allocation
// regression to the per-tag window: on a WARM session — one that has
// already run a transfer of this shape, so every row's adjacency
// backing and every tag's drift ledger holds its capacity — the
// per-slot cycle RetapTags (mover drift) + AppendColliders + DecodeSlot +
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
	cols, all := colsOfRows(rows), allTags(k)

	s := NewSession()
	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	cur := append([]complex128(nil), taps...)

	slot := 1
	cycle := func() {
		i := (slot - 1) % len(rows)
		cur[mover] *= complex(0.9995, 0.002)
		s.RetapTags(cur, all)
		s.AppendColliders(cols[i], obss[i])
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		if slot > window {
			s.RetireTag(mover, slot-window)
		}
		slot++
	}
	begin := func() {
		s.Begin(k, frameLen, maxSlots, 2, taps)
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

package bp

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// driveSlots feeds n scripted slots into s, decoding each, and returns
// the next slot index. rows/obss are the shared script; locked is the
// session's lock vector (length ≥ s.k; rows are truncated to s.k).
func driveSlots(t *testing.T, s *Session, rows []bits.Vector, obss [][]complex128, from, n int, locked []bool, base uint64) int {
	t.Helper()
	minMargin := make([]float64, s.k)
	ambiguous := make([]bool, s.k)
	slot := from
	for i := 0; i < n; i++ {
		appendSlot(s, rows[slot-1][:s.k], obss[slot-1])
		s.DecodeSlot(slot, locked[:s.k], base, minMargin, ambiguous)
		slot++
	}
	return slot
}

// scriptSlots pre-draws a deterministic slot script over k tags so the
// same air can be replayed into differently-driven sessions.
func scriptSlots(k, frameLen, n int, seed uint64) ([]bits.Vector, [][]complex128) {
	drv := &sessionDriver{k: k, frameLen: frameLen, src: prng.NewSource(seed)}
	rows := make([]bits.Vector, n)
	obss := make([][]complex128, n)
	for i := range rows {
		rows[i], obss[i] = drv.slot()
	}
	return rows, obss
}

// TestSessionRetireKeepsStateConsistent drives Retire interleaved with
// Grow, RetapTags and mid-transfer locks. Each retire invalidates the
// cached state, and after the next DecodeSlot the rebuilt state must
// match a from-scratch recompute over the live rows, drift bookkeeping
// included.
func TestSessionRetireKeepsStateConsistent(t *testing.T) {
	const (
		k0       = 6
		kNew     = 2
		k2       = k0 + kNew
		frameLen = 7
		maxSlots = 48
		base     = 0x51DE
	)
	src := prng.NewSource(0x77AB)
	taps := randomTaps(k2, src)
	est := randomEstimates(k2, frameLen, src)
	rows, obss := scriptSlots(k2, frameLen, maxSlots, 0xFEED5)

	s := NewSession()
	s.Begin(k0, frameLen, maxSlots, 2, taps[:k0])
	s.TrackDrift(true) // exercise the armed drift accounting throughout
	s.InitPositions(est[:k0])
	locked := make([]bool, k2)

	slot := driveSlots(t, s, rows, obss, 1, 6, locked, base)

	// A steady-window retire of the two oldest rows.
	if n := s.Retire(2); n != 2 {
		t.Fatalf("Retire(2) retired %d rows, want 2", n)
	}
	if s.Retired() != 2 {
		t.Fatalf("Retired() = %d, want 2", s.Retired())
	}
	slot = driveSlots(t, s, rows, obss, slot, 1, locked, base)
	verifyState(t, s, locked, "after first retire")

	// Lock a tag mid-round, decode, then retire rows that include it.
	locked[2] = true
	slot = driveSlots(t, s, rows, obss, slot, 2, locked, base)
	if n := s.Retire(4); n != 2 {
		t.Fatalf("Retire(4) retired %d rows, want 2", n)
	}
	slot = driveSlots(t, s, rows, obss, slot, 1, locked, base)
	verifyState(t, s, locked, "after retire with a locked tag")

	// Grow the roster mid-window; earlier rows still exclude the
	// newcomers, later ones include them.
	s.Grow(taps[k0:], est[k0:])
	slot = driveSlots(t, s, rows, obss, slot, 4, locked, base)
	verifyState(t, s, locked, "after grow")
	if n := s.Retire(7); n != 3 {
		t.Fatalf("Retire(7) retired %d rows, want 3", n)
	}
	slot = driveSlots(t, s, rows, obss, slot, 1, locked, base)
	verifyState(t, s, locked, "after retire past grow")

	// RetapTags a minority of unlocked tags, then retire again.
	newTaps := append([]complex128(nil), taps...)
	newTaps[0] *= complex(1.02, 0.013)
	newTaps[5] *= complex(0.98, -0.02)
	retapAll(s, newTaps)
	slot = driveSlots(t, s, rows, obss, slot, 2, locked, base)
	verifyState(t, s, locked, "after retap")
	if n := s.Retire(9); n != 2 {
		t.Fatalf("Retire(9) retired %d rows, want 2", n)
	}
	slot = driveSlots(t, s, rows, obss, slot, 1, locked, base)
	verifyState(t, s, locked, "after retire on retapped state")

	// Retire most of the window at once.
	if got := s.Retire(slot - 2); got == 0 {
		t.Fatal("majority retire retired nothing")
	}
	driveSlots(t, s, rows, obss, slot, 2, locked, base)
	verifyState(t, s, locked, "after majority retire")
}

// TestSessionRetireSlidingWindow slides a six-row window one row per
// slot, so every slot retires a row, invalidates and rebuilds; each
// rebuilt state must match a from-scratch recompute. The mostly-locked
// case locks all but three of its tags mid-run, so the window retires
// inactive rows — rows whose residual entries the session no longer
// maintains.
func TestSessionRetireSlidingWindow(t *testing.T) {
	cases := []struct {
		name string
		k    int
		// lock is locked after slot 5's decode.
		lock []int
		// wantInactive asserts that the window retired an inactive row.
		wantInactive bool
	}{
		{name: "one-lock", k: 7, lock: []int{1}},
		{name: "mostly-locked", k: 14, lock: []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, wantInactive: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			retireSlidingWindow(t, tc.k, tc.lock, tc.wantInactive)
		})
	}
}

func retireSlidingWindow(t *testing.T, k int, lock []int, wantInactive bool) {
	const (
		frameLen = 6
		maxSlots = 40
		window   = 6
		base     = 0xB11D
	)
	src := prng.NewSource(0x9C31)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0xC0FF)

	s := NewSession()
	s.Begin(k, frameLen, maxSlots, 2, taps)
	s.TrackDrift(true)
	s.InitPositions(est)

	locked := make([]bool, k)
	retiredInactive := 0
	for slot := 1; slot <= 16; slot++ {
		driveSlots(t, s, rows, obss, slot, 1, locked, base)
		verifyState(t, s, locked, "after a decode")
		if slot == 5 {
			for _, i := range lock {
				locked[i] = true
			}
		}
		if slot > window {
			if g := &s.g; len(g.rowActive[g.retired]) == 0 {
				retiredInactive++
			}
			if n := s.Retire(slot - window); n != 1 {
				t.Fatalf("slot %d: retired %d rows, want 1", slot, n)
			}
		}
	}
	if wantInactive && retiredInactive == 0 {
		t.Fatal("the window never retired an inactive row")
	}
}

// TestSessionRetireAllRows pins the degenerate edge: retiring every
// absorbed row is legal, decoding continues (margins collapse to zero
// — the decoder honestly knows nothing), and fresh slots rebuild a
// working decode.
func TestSessionRetireAllRows(t *testing.T) {
	const (
		k        = 5
		frameLen = 6
		maxSlots = 24
		base     = 0xA110
	)
	src := prng.NewSource(0x4F2)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, maxSlots, 0xD1CE)

	s := NewSession()
	s.Begin(k, frameLen, maxSlots, 1, taps)
	s.InitPositions(est)
	locked := make([]bool, k)
	slot := driveSlots(t, s, rows, obss, 1, 5, locked, base)

	if n := s.Retire(slot - 1); n != 5 {
		t.Fatalf("retire-all retired %d rows, want 5", n)
	}
	for i := 0; i < k; i++ {
		if d := s.Degree(i); d != 0 {
			t.Fatalf("tag %d still has degree %d after retire-all", i, d)
		}
	}
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	appendSlot(s, rows[slot-1], obss[slot-1])
	s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
	for p := 0; p < frameLen; p++ {
		if math.IsNaN(s.PosError(p)) {
			t.Fatalf("position %d error is NaN after retire-all", p)
		}
	}
	for i := 0; i < k; i++ {
		if rows[slot-1][i] {
			continue
		}
		if minMargin[i] != 0 {
			t.Fatalf("tag %d silent in the only live row has margin %v, want 0", i, minMargin[i])
		}
	}
	slot++
	driveSlots(t, s, rows, obss, slot, 4, locked, base)
	verifyState(t, s, locked, "after refilling the window")
}

// TestSessionWindowSteadyStateAllocationFree extends the PR-1/PR-2
// allocation regression to the windowed decoder: one steady-state slot
// cycle — AppendColliders, DecodeSlot, Retire — on a warm session must not
// touch the heap. The retire step's drift bookkeeping and the rebuild
// it triggers run on session-owned buffers, so a sliding window costs
// zero allocations per slot, exactly like the growing decode it
// replaces.
func TestSessionWindowSteadyStateAllocationFree(t *testing.T) {
	const (
		k        = 8
		frameLen = 8
		window   = 6
		maxSlots = 600
		base     = 0x10CA
	)
	src := prng.NewSource(0x88F)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows, obss := scriptSlots(k, frameLen, 32, 0xF00D)
	cols := colsOfRows(rows)

	s := NewSession()
	s.Begin(k, frameLen, maxSlots, 2, taps)
	s.TrackDrift(true) // the armed accounting must be alloc-free too
	s.InitPositions(est)
	locked := make([]bool, k)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)

	slot := 1
	cycle := func() {
		i := (slot - 1) % len(rows)
		s.AppendColliders(cols[i], obss[i])
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		if slot > window {
			s.Retire(slot - window)
		}
		slot++
	}
	// Warm-up: fill the window and size every internal buffer.
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state windowed slot cycle allocates %v times, want 0", allocs)
	}
	if s.Retired() == 0 {
		t.Fatal("window never slid — the cycle under test did not exercise Retire")
	}
}

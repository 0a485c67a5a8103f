package bp

import (
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/prng"
)

// randomProblem draws a dense one-shot problem: every tag in each of l
// rows with probability 1/2, random taps, and unit-power random
// observations unrelated to any bit pattern.
func randomProblem(src *prng.Source, k, l int) problem {
	pr := problem{taps: make([]complex128, k), y: make(dsp.Vec, l)}
	for r := 0; r < l; r++ {
		row := make(bits.Vector, k)
		for c := range row {
			row[c] = src.Bool()
		}
		pr.rows = append(pr.rows, row)
	}
	for i := range pr.taps {
		pr.taps[i] = complex(0.5+src.Float64(), src.Float64())
	}
	for j := range pr.y {
		pr.y[j] = src.ComplexNorm()
	}
	return pr
}

// TestPerSlotDecodePathAllocationFree pins the warm one-shot decode
// round — Begin, InitPositions, one AppendColliders per row, an initialized
// multi-restart DecodeSlot with its margins — to zero heap allocations
// once the session has seen the shape.
func TestPerSlotDecodePathAllocationFree(t *testing.T) {
	src := prng.NewSource(7)
	const k, l = 12, 40
	pr := randomProblem(src, k, l)
	locked := make([]bool, k)
	init := bits.Random(src, k)

	o := newOneShot()
	cycle := func() { o.decode(pr, init, locked, 2, 7) }
	cycle() // warm-up: sizes the session's buffers and the graph's adjacency
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state one-shot decode allocates %v times per round, want 0", allocs)
	}
}

// TestConditionalMarginScratchAllocationFree covers the acceptance-gate
// path: after a warm DecodeSlot, Session.ConditionalMargin's forced
// flip and re-descent run allocation-free.
func TestConditionalMarginScratchAllocationFree(t *testing.T) {
	src := prng.NewSource(11)
	const k, l = 6, 24
	pr := randomProblem(src, k, l)
	b := bits.Random(src, k)

	o := newOneShot()
	o.decode(pr, b, nil, 0, 11)
	cycle := func() {
		o.s.ConditionalMargin(0, 2, nil)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("ConditionalMargin allocates %v times per call, want 0", allocs)
	}
}

// TestDecodeScratchMatchesHeapDecode pins that a session whose buffers
// were dirtied by a differently-shaped decode is bit-identical to a
// fresh session for the same decode-PRNG root: bits, error, flips,
// margins and ambiguity flags.
func TestDecodeScratchMatchesHeapDecode(t *testing.T) {
	src := prng.NewSource(13)
	const k, l = 10, 30
	pr := randomProblem(src, k, l)

	warm := newOneShot()
	// Dirty the session with a differently-shaped decode first so any
	// stale-buffer reuse bug would surface.
	warm.decode(randomProblem(src, k+3, l+7), nil, nil, 5, 999)

	fresh := newOneShot()
	fresh.decode(pr, nil, nil, 3, 42)
	warm.decode(pr, nil, nil, 3, 42)
	if fresh.err() != warm.err() || fresh.flips != warm.flips {
		t.Fatalf("warm decode diverged: err %v vs %v, flips %d vs %d",
			fresh.err(), warm.err(), fresh.flips, warm.flips)
	}
	if !fresh.decoded().Equal(warm.decoded()) {
		t.Fatalf("warm decode bits diverged:\n  fresh %v\n  warm  %v", fresh.decoded(), warm.decoded())
	}
	for i := range fresh.ambiguous {
		if fresh.ambiguous[i] != warm.ambiguous[i] || fresh.margins[i] != warm.margins[i] {
			t.Fatalf("margins or ambiguity flags diverged at tag %d", i)
		}
	}
}

// TestSessionLockGrowSteadyStateAllocationFree pins the active-set
// bookkeeping to the zero-allocation warm path: on a session Reserved
// for its roster cap, a slot cycle that also CRC-locks a tag (the
// graph's active list shrinks) or Grows the roster within the cap (it
// extends) touches the heap no more than a plain slot does. Every tap
// drifts each slot, so each decode runs the full rebuild.
func TestSessionLockGrowSteadyStateAllocationFree(t *testing.T) {
	const (
		k0       = 8
		kCap     = 24
		frameLen = 8
		maxSlots = 256
		restarts = 2
		base     = 0x10C6
	)
	src := prng.NewSource(0x6A0)
	taps := randomTaps(kCap, src)
	est := randomEstimates(kCap, frameLen, src)
	rows, obss := scriptSlots(kCap, frameLen, 64, 0x6A1)
	cols, all := colsOfRows(rows), allTags(kCap)

	s := NewSession()
	s.Reserve(kCap, frameLen, maxSlots, restarts)
	locked := make([]bool, kCap)
	minMargin := make([]float64, kCap)
	ambiguous := make([]bool, kCap)
	cur := make([]complex128, kCap)
	slot, k := 1, k0
	cycle := func() {
		for i := range cur[:k] {
			cur[i] *= complex(0.9999, 0.001)
		}
		s.RetapTags(cur[:k], all[:k])
		i := (slot - 1) % len(rows)
		n, _ := slices.BinarySearch(cols[i], k) // the colliders among the first k tags
		s.AppendColliders(cols[i][:n], obss[i])
		s.DecodeSlot(slot, locked[:k], base, minMargin[:k], ambiguous[:k])
		switch {
		case slot%5 == 0 && k < kCap:
			s.Grow(cur[k:k+1], est[k:k+1])
			k++
		case slot%3 == 0:
			locked[(slot/3)%k] = true
		}
		slot++
	}
	begin := func() {
		k = k0
		s.Begin(k, frameLen, maxSlots, restarts, taps[:k])
		s.InitPositions(est[:k])
		copy(cur, taps)
		clear(locked)
		slot = 1
	}
	// First transfer: grow every backing the steady state will touch.
	begin()
	for slot <= 120 {
		cycle()
	}
	// Warm transfer of the same shape: the measured regime.
	begin()
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(60, cycle); allocs != 0 {
		t.Fatalf("warm slot cycle with locks and grows allocates %v times, want 0", allocs)
	}
	if k == k0 || len(s.g.activeTags) == k {
		t.Fatalf("measured cycles neither grew nor locked: K %d, %d active", k, len(s.g.activeTags))
	}
}

// warmGramSession returns a session whose next DecodeSlot runs on the
// Gram path with locked tags sharing its active rows, and a cycle that
// moves every tap (RetapTags invalidates every position, so each is
// re-derived in Gram space from the matched-filter state, with the
// locked tags' columns entering B) and decodes one slot.
func warmGramSession(t *testing.T) (s *Session, locked []bool, cycle func()) {
	t.Helper()
	const (
		k        = 10
		frameLen = 8
		l        = 40
		restarts = 2
		base     = 0x6A5
	)
	src := prng.NewSource(0x6A50)
	taps := randomTaps(k, src)
	rows, obss := scriptSlots(k, frameLen, l, 0x6A51)
	s = NewSession()
	t.Cleanup(s.Close)
	s.Begin(k, frameLen, l, restarts, taps)
	s.InitPositions(randomEstimates(k, frameLen, src))
	for i := range rows {
		appendSlot(s, rows[i], obss[i])
	}
	locked = make([]bool, k)
	locked[1], locked[4] = true, true
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	cur := append([]complex128(nil), taps...)
	all := allTags(k)
	slot := l
	cycle = func() {
		for i := range cur {
			cur[i] *= complex(0.9999, 0.001)
		}
		s.RetapTags(cur, all)
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		slot++
	}
	cycle()
	if !s.gramOn || len(s.gramLocked) == 0 {
		t.Fatalf("slot ran on the Gram path %v with %d locked tags in active rows, want the Gram path with some", s.gramOn, len(s.gramLocked))
	}
	lockedSet := 0
	for p := 0; p < frameLen; p++ {
		for _, l := range s.gramLocked {
			if s.PosBits(p)[l] {
				lockedSet++
			}
		}
	}
	if lockedSet == 0 || s.g.deactivated[2] || s.Degree(2) == 0 {
		t.Fatalf("%d locked set bits enter B; tag 2 locked %v, degree %d: want some, an unlocked tag with rows", lockedSet, s.g.deactivated[2], s.Degree(2))
	}
	return s, locked, cycle
}

// gramThenRowCycle returns a cycle that runs one short transfer on a
// session warmed by a first run of it: a Gram slot, then a row slot
// with nothing but a new row and new locks between them. The Gram slot
// keeps no row state, so the row slot rebuilds every position. Four
// heavy tags sit in most rows and six light tags in few; locking the
// heavy ones for the second slot leaves the light ones active over too
// few rows for the Gram (gramRule), which is what flips the slot's kind.
func gramThenRowCycle(t *testing.T) func() {
	t.Helper()
	const (
		k        = 10
		heavy    = 4
		frameLen = 8
		l        = 40
		restarts = 2
		base     = 0x6A6
	)
	src := prng.NewSource(0x6A60)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	rows := make([]bits.Vector, l+1)
	obss := make([][]complex128, l+1)
	for r := range rows {
		rows[r] = make(bits.Vector, k)
		for i := range rows[r] {
			q := 0.1
			if i < heavy {
				q = 0.9
			}
			rows[r][i] = src.Bernoulli(q)
		}
		rows[r][r%heavy] = true
		obss[r] = make([]complex128, frameLen)
		for p := range obss[r] {
			obss[r][p] = src.ComplexNorm()
		}
	}
	cols := colsOfRows(rows)
	s := NewSession()
	t.Cleanup(s.Close)
	unlocked := make([]bool, k)
	locked := make([]bool, k)
	for i := 0; i < heavy; i++ {
		locked[i] = true
	}
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	var kinds [2]bool
	cycle := func() {
		s.Begin(k, frameLen, l+1, restarts, taps)
		s.InitPositions(est)
		for r := 0; r < l; r++ {
			s.AppendColliders(cols[r], obss[r])
		}
		s.DecodeSlot(l, unlocked, base, minMargin, ambiguous)
		kinds[0] = s.gramOn
		s.AppendColliders(cols[l], obss[l])
		s.DecodeSlot(l+1, locked, base, minMargin, ambiguous)
		kinds[1] = s.gramOn
	}
	cycle()
	if !kinds[0] || kinds[1] || !s.stateValid {
		t.Fatalf("slots ran on the Gram path %v, then %v (row state current %v); want a Gram slot, then a row slot that leaves it current", kinds[0], kinds[1], s.stateValid)
	}
	return cycle
}

// TestGramSlotDecodeAllocationFree pins to zero heap allocations a warm
// Gram slot, locked columns and all, and a row slot right after a Gram
// slot, which rebuilds every position's row state.
func TestGramSlotDecodeAllocationFree(t *testing.T) {
	_, _, gram := warmGramSession(t)
	inputs := []struct {
		name  string
		cycle func()
	}{
		{"gram-slot", gram},
		{"row-slot-after-gram-slot", gramThenRowCycle(t)},
	}
	for _, in := range inputs {
		if allocs := testing.AllocsPerRun(50, in.cycle); allocs != 0 {
			t.Errorf("%s: warm cycle allocates %v times, want 0", in.name, allocs)
		}
	}
}

// TestConditionalMarginGramAllocationFree covers the acceptance gate on
// a Gram slot (conditionalMarginGram): after a warm DecodeSlot, every
// position's gate score for an unlocked tag runs allocation-free.
func TestConditionalMarginGramAllocationFree(t *testing.T) {
	s, locked, _ := warmGramSession(t)
	gate := func() {
		for p := 0; p < s.frameLen; p++ {
			s.ConditionalMargin(p, 2, locked)
		}
	}
	if allocs := testing.AllocsPerRun(50, gate); allocs != 0 {
		t.Fatalf("Gram-path ConditionalMargin allocates %v times per sweep, want 0", allocs)
	}
}

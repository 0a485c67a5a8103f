package bp

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// TestPerSlotDecodePathAllocationFree pins the tentpole property of the
// scratch refactor: one steady-state per-slot decode round — graph
// rebuild, initialized multi-restart decode, margin computation — runs
// with zero heap allocations once the worker's arena is warm.
func TestPerSlotDecodePathAllocationFree(t *testing.T) {
	src := prng.NewSource(7)
	const k, l = 12, 40
	d := bits.NewMatrix(0, k)
	for r := 0; r < l; r++ {
		row := make(bits.Vector, k)
		for c := range row {
			row[c] = src.Bool()
		}
		d.AppendRow(row)
	}
	taps := make([]complex128, k)
	for i := range taps {
		taps[i] = complex(0.5+src.Float64(), src.Float64())
	}
	y := make(dsp.Vec, l)
	for j := range y {
		y[j] = src.ComplexNorm()
	}
	locked := make([]bool, k)
	init := bits.Random(src, k)
	margins := make([]float64, k)

	sc := scratch.New()
	g := &Graph{}
	cycle := func() {
		g.Rebuild(d, taps)
		mark := sc.Mark()
		out := g.Decode(y, Options{Init: init, Locked: locked, Restarts: 2, Scratch: sc}, src)
		g.MarginsInto(margins, y, out.Bits, sc)
		sc.Release(mark)
	}
	cycle()    // warm-up: sizes the arena and the graph's adjacency
	sc.Reset() // grows arena blocks to the observed peak
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state per-slot decode allocates %v times per round, want 0", allocs)
	}
}

// TestConditionalMarginScratchAllocationFree covers the acceptance-gate
// path: the conditional re-decode must also run allocation-free on a
// warm arena.
func TestConditionalMarginScratchAllocationFree(t *testing.T) {
	src := prng.NewSource(11)
	const k, l = 6, 24
	d := bits.NewMatrix(0, k)
	for r := 0; r < l; r++ {
		row := make(bits.Vector, k)
		for c := range row {
			row[c] = src.Bool()
		}
		d.AppendRow(row)
	}
	taps := make([]complex128, k)
	for i := range taps {
		taps[i] = complex(0.5+src.Float64(), src.Float64())
	}
	y := make(dsp.Vec, l)
	for j := range y {
		y[j] = src.ComplexNorm()
	}
	b := bits.Random(src, k)

	sc := scratch.New()
	g := NewGraph(d, taps)
	cycle := func() {
		g.ConditionalMarginScratch(y, b, 2, nil, src, sc)
	}
	cycle()
	sc.Reset()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("ConditionalMarginScratch allocates %v times per call, want 0", allocs)
	}
}

// TestDecodeScratchMatchesHeapDecode pins that a scratch-backed decode
// is bit-identical to the plain heap decode for the same source stream.
func TestDecodeScratchMatchesHeapDecode(t *testing.T) {
	src := prng.NewSource(13)
	const k, l = 10, 30
	d := bits.NewMatrix(0, k)
	for r := 0; r < l; r++ {
		row := make(bits.Vector, k)
		for c := range row {
			row[c] = src.Bool()
		}
		d.AppendRow(row)
	}
	taps := make([]complex128, k)
	for i := range taps {
		taps[i] = complex(0.5+src.Float64(), src.Float64())
	}
	y := make(dsp.Vec, l)
	for j := range y {
		y[j] = src.ComplexNorm()
	}
	g := NewGraph(d, taps)

	sc := scratch.New()
	// Dirty the arena with a differently-shaped decode first so any
	// stale-buffer reuse bug would surface.
	g.Decode(y, Options{Restarts: 5, Scratch: sc}, prng.NewSource(999))
	sc.Reset()

	plain := g.Decode(y, Options{Restarts: 3}, prng.NewSource(42))
	mark := sc.Mark()
	arena := g.Decode(y, Options{Restarts: 3, Scratch: sc}, prng.NewSource(42))
	if plain.Error != arena.Error || plain.Flips != arena.Flips {
		t.Fatalf("scratch decode diverged: err %v vs %v, flips %d vs %d",
			plain.Error, arena.Error, plain.Flips, arena.Flips)
	}
	if !plain.Bits.Equal(arena.Bits) {
		t.Fatalf("scratch decode bits diverged:\n  plain %v\n  arena %v", plain.Bits, arena.Bits)
	}
	for i := range plain.Ambiguous {
		if plain.Ambiguous[i] != arena.Ambiguous[i] {
			t.Fatalf("ambiguity flags diverged at tag %d", i)
		}
	}
	sc.Release(mark)
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

	s := NewSession()
	defer s.Close()
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
		s.RetapAll(cur[:k])
		i := (slot - 1) % len(rows)
		s.AppendSlot(rows[i][:k], obss[i])
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
		s.Begin(k, frameLen, maxSlots, 1, restarts, taps[:k])
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

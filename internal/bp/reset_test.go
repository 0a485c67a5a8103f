package bp

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// TestResetRecycledSessionMatchesFresh pins the pool-recycling
// contract: a session that ran a full (different-shaped) transfer and
// was Reset decodes a subsequent transfer byte-identically to a fresh
// session — no graph rows, taps, drift ledgers or cached state leak
// through the recycle.
func TestResetRecycledSessionMatchesFresh(t *testing.T) {
	const k, frameLen, maxSlots = 6, 20, 48

	// Dirty the recycled session with a different-shaped transfer,
	// window accounting armed, so stale state of every kind is present.
	recycled := &Session{}
	{
		src := prng.NewSource(0xD1147)
		dk, dlen := k+3, frameLen+5
		recycled.Begin(dk, dlen, maxSlots, 2, randomTaps(dk, src))
		recycled.TrackDrift(true)
		recycled.InitPositions(randomEstimates(dk, dlen, src))
		drv := &sessionDriver{k: dk, frameLen: dlen, src: src}
		locked := make([]bool, dk)
		mm, amb := make([]float64, dk), make([]bool, dk)
		for slot := 1; slot <= 12; slot++ {
			row, obs := drv.slot()
			appendSlot(recycled, row, obs)
			recycled.DecodeSlot(slot, locked, 0xBA5E, mm, amb)
			if slot > 6 {
				recycled.Retire(slot - 6)
			}
		}
	}
	recycled.Reset()

	fresh := &Session{}
	src1 := prng.NewSource(0x5E55)
	src2 := prng.NewSource(0x5E55)
	taps := randomTaps(k, src1)
	randomTaps(k, src2) // keep the streams aligned
	est := randomEstimates(k, frameLen, src1)
	est2 := randomEstimates(k, frameLen, src2)

	fresh.Begin(k, frameLen, maxSlots, 2, taps)
	recycled.Begin(k, frameLen, maxSlots, 2, taps)
	fresh.InitPositions(est)
	recycled.InitPositions(est2)

	drv := &sessionDriver{k: k, frameLen: frameLen, src: src1}
	locked := make([]bool, k)
	for slot := 1; slot <= 20; slot++ {
		row, obs := drv.slot()
		appendSlot(fresh, row, obs)
		appendSlot(recycled, row.Clone(), append([]complex128(nil), obs...))
		decodeCompare(t, fresh, recycled, slot, locked, 0xF00D, k, frameLen)
	}
}

// TestResetRecycleZeroAllocs pins the engine pool's warm path: once a
// session has run one transfer of a given shape, the full recycle cycle
// — Reset, same-shaped Begin, a transfer's worth of append/decode
// slots — performs zero heap allocations.
func TestResetRecycleZeroAllocs(t *testing.T) {
	const k, frameLen, maxSlots, nSlots = 8, 24, 32, 10

	src := prng.NewSource(0xA110C)
	taps := randomTaps(k, src)
	est := randomEstimates(k, frameLen, src)
	drv := &sessionDriver{k: k, frameLen: frameLen, src: src}
	rows := make([]bits.Vector, nSlots)
	obs := make([][]complex128, nSlots)
	for s := range rows {
		rows[s], obs[s] = drv.slot()
	}
	locked := make([]bool, k)
	mm, amb := make([]float64, k), make([]bool, k)

	cols := colsOfRows(rows)
	sess := &Session{}
	cycle := func() {
		sess.Reset()
		sess.Begin(k, frameLen, maxSlots, 1, taps)
		sess.InitPositions(est)
		for s := 0; s < nSlots; s++ {
			sess.AppendColliders(cols[s], obs[s])
			sess.DecodeSlot(s+1, locked, 0xBEEF, mm, amb)
		}
	}
	cycle() // warm-up: sizes every buffer for this shape
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm Reset/Begin/decode recycle allocates %v times per cycle, want 0", allocs)
	}
}

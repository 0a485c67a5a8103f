package bp

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// BenchmarkDecodeSlotWarehouseShape times one warm collision-slot cycle
// of the warehouse workload's average slot: 60 joined tags of which 57
// are CRC-locked, a 150-row live window holding only a couple of rows
// with an unlocked collider, frameLen 48 and 2 restarts. Every slot
// moves every tap a little (RetapAll falls back to a full rebuild, as
// under the Gauss–Markov channel), appends a row of ~5 colliders,
// decodes and retires the row that left the window. A transfer is
// re-begun every 250 timed slots; its 150-slot fill runs untimed.
func BenchmarkDecodeSlotWarehouseShape(b *testing.B) {
	const (
		k        = 60
		unlocked = 3
		frameLen = 48
		restarts = 2
		window   = 150
		timed    = 250
		maxSlots = window + timed
		base     = 0x3A5E
	)
	src := prng.NewSource(0x3A11)
	taps := randomTaps(k, src)
	msgs := randomEstimates(k, frameLen, src)
	est := randomEstimates(k, frameLen, src)
	locked := make([]bool, k)
	for i := unlocked; i < k; i++ {
		locked[i] = true
		est[i] = msgs[i]
	}
	// Script one transfer's air: a locked collider joins each row with
	// probability 5/57, an unlocked one with probability 0.004 — about
	// 1.8 active rows in the window.
	rows := make([]bits.Vector, maxSlots)
	obss := make([][]complex128, maxSlots)
	for r := range rows {
		row := make(bits.Vector, k)
		obs := make([]complex128, frameLen)
		for i := range row {
			p := 5.0 / (k - unlocked)
			if i < unlocked {
				p = 0.004
			}
			row[i] = src.Bernoulli(p)
		}
		for p := range obs {
			y := 0.1 * src.ComplexNorm()
			for i, on := range row {
				if on && msgs[i][p] {
					y += taps[i]
				}
			}
			obs[p] = y
		}
		rows[r], obss[r] = row, obs
	}

	s := NewSession()
	defer s.Close()
	s.Reserve(k, frameLen, maxSlots, restarts)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	cur := make([]complex128, k)
	slot := 1
	cycle := func() {
		for i := range cur {
			cur[i] *= complex(0.99999, 0.0001)
		}
		s.RetapAll(cur)
		s.AppendSlot(rows[slot-1], obss[slot-1])
		s.DecodeSlot(slot, locked, base, minMargin, ambiguous)
		if slot > window {
			s.Retire(slot - window)
		}
		slot++
	}
	begin := func() {
		s.Begin(k, frameLen, maxSlots, 1, restarts, taps)
		s.InitPositions(est)
		copy(cur, taps)
		slot = 1
		for slot <= window {
			cycle()
		}
	}
	begin()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if slot > maxSlots {
			b.StopTimer()
			begin()
			b.StartTimer()
		}
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}

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
// moves every tap a little (RetapAll invalidates and the decode
// rebuilds, as under the Gauss–Markov channel), appends a row of ~5
// colliders, decodes and retires the row that left the window. A
// transfer is re-begun every 250 timed slots; its 150-slot fill runs
// untimed.
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
		s.Begin(k, frameLen, maxSlots, restarts, taps)
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

// BenchmarkDecodeSlotMobilityShape times one warm collision-slot cycle
// of the mobility workload's average slot (mixed-mobility.json): K = 8
// with 4 tags CRC-locked, a 160-row live window in which each tag
// collides with probability 0.2 (about 95 rows with an unlocked
// collider, about 130 active adjacency entries), frameLen 37 and 2
// restarts. Every slot moves half the taps, so every decode rebuilds,
// as under the per-tag Gauss–Markov drift;
// each slot appends a row, decodes and retires the row that left the
// window. Four unlocked tags over ~130 entries put every slot's
// restarts on the Gram path. A transfer is re-begun every 250 timed
// slots; its 160-slot fill runs untimed.
func BenchmarkDecodeSlotMobilityShape(b *testing.B) {
	const (
		k        = 8
		unlocked = 4
		frameLen = 37
		restarts = 2
		window   = 160
		timed    = 250
		maxSlots = window + timed
		base     = 0x30B1
	)
	src := prng.NewSource(0x30B2)
	taps := randomTaps(k, src)
	msgs := randomEstimates(k, frameLen, src)
	est := randomEstimates(k, frameLen, src)
	locked := make([]bool, k)
	for i := unlocked; i < k; i++ {
		locked[i] = true
		est[i] = msgs[i]
	}
	rows := make([]bits.Vector, maxSlots)
	obss := make([][]complex128, maxSlots)
	for r := range rows {
		row := make(bits.Vector, k)
		obs := make([]complex128, frameLen)
		for i := range row {
			row[i] = src.Bernoulli(0.2)
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
	s.Reserve(k, frameLen, maxSlots, restarts)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	cur := make([]complex128, k)
	slot := 1
	cycle := func() {
		for i := 0; i < k; i += 2 {
			cur[i] *= complex(0.9999, 0.001)
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
		s.Begin(k, frameLen, maxSlots, restarts, taps)
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

// BenchmarkDecodeSlotLargeK times one warm collision-slot cycle of a
// transfer well past the paper's K: 128 unlocked tags, each colliding
// with probability 0.1 (about 13 colliders a row), a 48-row live
// window, frameLen 16 and 2 restarts. Every slot moves 4 of the 128
// taps a little, appends a row, decodes and retires the row that left
// the window; the retap invalidates, so every decode rebuilds every
// position. With 128 active tags the restarts run on the row path, and
// every flip scans all of them. A
// transfer is re-begun every 200 timed slots; its 48-slot fill runs
// untimed.
func BenchmarkDecodeSlotLargeK(b *testing.B) {
	const (
		k        = 128
		frameLen = 16
		restarts = 2
		window   = 48
		timed    = 200
		maxSlots = window + timed
		moved    = 4
		base     = 0x1A26
	)
	src := prng.NewSource(0x1A27)
	taps := randomTaps(k, src)
	msgs := randomEstimates(k, frameLen, src)
	est := randomEstimates(k, frameLen, src)
	rows := make([]bits.Vector, maxSlots)
	obss := make([][]complex128, maxSlots)
	for r := range rows {
		row := make(bits.Vector, k)
		obs := make([]complex128, frameLen)
		for i := range row {
			row[i] = src.Bernoulli(0.1)
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
	s.Reserve(k, frameLen, maxSlots, restarts)
	minMargin := make([]float64, k)
	ambiguous := make([]bool, k)
	locked := make([]bool, k)
	cur := make([]complex128, k)
	slot := 1
	cycle := func() {
		for x := 0; x < moved; x++ {
			i := (slot*moved + x) % k
			cur[i] *= complex(0.9999, 0.001)
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
		s.Begin(k, frameLen, maxSlots, restarts, taps)
		s.InitPositions(est)
		copy(cur, taps)
		slot = 1
		for slot <= window {
			cycle()
		}
	}
	begin()
	b.ReportAllocs()
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

// QuantileSketch: the bounded-memory counterpart of ExactQuantile for
// warehouse-scale latency populations. A KLL-style compactor hierarchy
// with three properties the scenario engine needs and the textbook
// randomized sketch does not give:
//
//  1. Deterministic. Compaction keeps alternating parities instead of
//     flipping coins, so the same sample sequence always produces the
//     same sketch — reports stay byte-identical across runs and
//     GOMAXPROCS settings.
//  2. Exact below the buffer. Until the first compaction the sketch is
//     just the sample multiset, and its nearest-rank query is
//     bit-identical to ExactQuantile — the small-N goldens pass
//     through a sketch-shaped code path unchanged.
//  3. Merge-order invariant. Merge pools levels without compacting, so
//     the merged sketch is a pure function of the item multiset: any
//     trial merge order yields identical queries (pinned by test).
//     Canonicalization happens once, at query time.
//
// The price is a tracked, not fixed, rank-error budget: every
// compaction of level h (item weight 2^h) can displace a rank by at
// most 2^h, and RankErrorBound reports the running sum. At the default
// 4096-item buffer a 50k-sample population compacts to a bound of a
// few dozen ranks — under 0.1% — while holding ~5 level buffers
// instead of 50k samples.
package stats

import (
	"math"
	"sort"
)

// DefaultSketchBuffer is the per-level item capacity of a
// NewQuantileSketch — also the sample count below which the sketch is
// exact, and the threshold the scenario engine uses to auto-select
// sketched over exact latency estimation.
const DefaultSketchBuffer = 4096

// QuantileSketch is a deterministic mergeable rank sketch. The zero
// value is NOT ready to use; call NewQuantileSketch (or
// NewQuantileSketchCapacity).
type QuantileSketch struct {
	// levels[h] holds items of weight 2^h, unsorted between operations.
	// A level grows on demand, so a sketch of a few samples holds a few
	// floats, not a buffer of cap+1; a compaction keeps its capacity.
	levels [][]float64
	// parity[h] alternates which half a compaction of level h promotes.
	parity []bool
	cap    int
	n      int // total weighted item count (= samples added/merged)
	errB   int // accumulated worst-case rank displacement
	min    float64
	max    float64
}

// NewQuantileSketch returns an empty sketch with the default buffer.
func NewQuantileSketch() *QuantileSketch {
	return NewQuantileSketchCapacity(DefaultSketchBuffer)
}

// NewQuantileSketchCapacity returns an empty sketch whose levels hold
// up to c items each; c < 8 is raised to 8 (a compaction needs room to
// halve something).
func NewQuantileSketchCapacity(c int) *QuantileSketch {
	if c < 8 {
		c = 8
	}
	return &QuantileSketch{
		cap: c,
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// Add inserts one sample. +Inf is legal (an undelivered tag's
// completion latency); NaN is ignored.
func (s *QuantileSketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if len(s.levels) == 0 {
		s.levels = append(s.levels, nil)
		s.parity = append(s.parity, false)
	}
	s.levels[0] = append(s.levels[0], v)
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	for h := 0; h < len(s.levels) && len(s.levels[h]) > s.cap; h++ {
		s.compact(h)
	}
}

// compact halves level h: sort, keep an odd straggler (the largest —
// it retains its exact weight), promote every other item of the even
// prefix to level h+1 at doubled weight. The promoted parity
// alternates per compaction so successive rank displacements cancel in
// expectation; the worst case, 2^h ranks, is charged to errB.
func (s *QuantileSketch) compact(h int) {
	lv := s.levels[h]
	sort.Float64s(lv)
	m := len(lv) &^ 1 // even prefix; a straggler stays at level h
	if m == 0 {
		return
	}
	if h+1 == len(s.levels) {
		s.levels = append(s.levels, nil)
		s.parity = append(s.parity, false)
	}
	off := 0
	if s.parity[h] {
		off = 1
	}
	s.parity[h] = !s.parity[h]
	for i := off; i < m; i += 2 {
		s.levels[h+1] = append(s.levels[h+1], lv[i])
	}
	if m < len(lv) {
		lv[0] = lv[m]
		s.levels[h] = lv[:1]
	} else {
		s.levels[h] = lv[:0]
	}
	s.errB += 1 << h
}

// Merge pools other's items into s without compacting: the result
// depends only on the combined item multiset, so any merge order gives
// identical queries. other is not modified. Error budgets add — each
// side's past compactions displaced its items independently.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil || other.n == 0 {
		return
	}
	for h := range other.levels {
		for h >= len(s.levels) {
			s.levels = append(s.levels, nil)
			s.parity = append(s.parity, false)
		}
		s.levels[h] = append(s.levels[h], other.levels[h]...)
	}
	s.n += other.n
	s.errB += other.errB
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Compacted reports whether any compaction has run — false means every
// query is exact (bit-identical to ExactQuantile over the same
// samples).
func (s *QuantileSketch) Compacted() bool { return s.errB > 0 }

// RankErrorBound returns the worst-case displacement, in ranks, of any
// Quantile answer: the returned value is guaranteed to be a sample
// whose true rank is within ±RankErrorBound of the queried one.
func (s *QuantileSketch) RankErrorBound() int { return s.errB }

// quantileIn answers Quantile(q) from the sketch's pooled items, which
// it reads only for 0 < q < 1.
func (s *QuantileSketch) quantileIn(items []weightedItem, q float64) float64 {
	switch {
	case s.n == 0:
		return math.NaN()
	case q <= 0:
		return s.min
	case q >= 1:
		return s.max
	}
	target := int(math.Ceil(q * float64(s.n)))
	if target < 1 {
		target = 1
	}
	if target > s.n {
		target = s.n
	}
	cum := 0
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return s.max
}

// Summary returns the five-number summary over the sketch, the same
// shape ExactQuantiles produces, flattening and sorting the levels once
// for all three interior quantiles.
func (s *QuantileSketch) Summary() Quantiles {
	var items []weightedItem
	if s.n > 0 {
		items = s.pooled()
	}
	return Quantiles{
		N:   s.n,
		Min: s.quantileIn(items, 0),
		P50: s.quantileIn(items, 0.50),
		P90: s.quantileIn(items, 0.90),
		P99: s.quantileIn(items, 0.99),
		Max: s.quantileIn(items, 1),
	}
}

type weightedItem struct {
	v float64
	w int
}

// pooled flattens the levels into value-sorted weighted items — the
// query-time canonical form that makes merges order-invariant.
func (s *QuantileSketch) pooled() []weightedItem {
	total := 0
	for _, lv := range s.levels {
		total += len(lv)
	}
	items := make([]weightedItem, 0, total)
	for h, lv := range s.levels {
		w := 1 << h
		for _, v := range lv {
			items = append(items, weightedItem{v: v, w: w})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	return items
}

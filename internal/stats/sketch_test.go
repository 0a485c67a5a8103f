package stats

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/prng"
)

// sortedRank returns the r-th smallest sample (1-based), clamped.
func sortedRank(sorted []float64, r int) float64 {
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// sketchDistributions generates the sample families the property tests
// sweep: uniform, heavy-tailed, duplicate-heavy (many tags complete in
// the same slot) and censored (+Inf for undelivered tags).
func sketchDistributions(src *prng.Source, n int) map[string][]float64 {
	uniform := make([]float64, n)
	tailed := make([]float64, n)
	dupes := make([]float64, n)
	censored := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = src.Float64() * 1000
		tailed[i] = -math.Log1p(-src.Float64()) * 50
		dupes[i] = float64(src.IntN(20))
		if src.IntN(50) == 0 {
			censored[i] = math.Inf(1)
		} else {
			censored[i] = src.Float64() * 300
		}
	}
	return map[string][]float64{
		"uniform": uniform, "tailed": tailed, "dupes": dupes, "censored": censored,
	}
}

// summaryQs pairs each order statistic of a Summary with its quantile.
func summaryQs(s Quantiles) [5][2]float64 {
	return [5][2]float64{{0, s.Min}, {0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}, {1, s.Max}}
}

// TestSketchExactBelowBuffer: until the buffer overflows the sketch is
// the sample multiset and must answer bit-identically to ExactQuantile
// — this is what lets the scenario engine route small-N reports
// through the sketch surface without disturbing a single golden.
func TestSketchExactBelowBuffer(t *testing.T) {
	src := prng.NewSource(7)
	for _, n := range []int{1, 2, 17, 100, DefaultSketchBuffer} {
		for name, xs := range sketchDistributions(src, n) {
			sk := NewQuantileSketch()
			for _, x := range xs {
				sk.Add(x)
			}
			if sk.Compacted() {
				t.Fatalf("%s n=%d: sketch compacted below its buffer", name, n)
			}
			if sk.RankErrorBound() != 0 {
				t.Fatalf("%s n=%d: rank error bound %d without compaction", name, n, sk.RankErrorBound())
			}
			if got, want := sk.Summary(), ExactQuantiles(xs); got != want {
				t.Fatalf("%s n=%d: sketch %+v, exact %+v", name, n, got, want)
			}
		}
	}
}

// TestSketchRankErrorBound forces heavy compaction with a tiny buffer
// and asserts the advertised bound: every answer must be a sample
// whose true rank is within ±RankErrorBound of the queried rank.
func TestSketchRankErrorBound(t *testing.T) {
	src := prng.NewSource(8)
	for _, n := range []int{500, 2000, 10000, 50000} {
		for _, capacity := range []int{32, 128, 1024} {
			for name, xs := range sketchDistributions(src, n) {
				sk := NewQuantileSketchCapacity(capacity)
				for _, x := range xs {
					sk.Add(x)
				}
				sum := sk.Summary()
				if sum.N != n {
					t.Fatalf("%s n=%d cap=%d: sketch counts %d samples", name, n, capacity, sum.N)
				}
				b := sk.RankErrorBound()
				if n > capacity && b == 0 {
					t.Fatalf("%s n=%d cap=%d: no compaction recorded", name, n, capacity)
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				for _, qv := range summaryQs(sum) {
					q, got := qv[0], qv[1]
					target := int(math.Ceil(q * float64(n)))
					lo := sortedRank(sorted, target-b)
					hi := sortedRank(sorted, target+b)
					if got < lo || got > hi {
						t.Fatalf("%s n=%d cap=%d q=%v: sketch %v outside rank band [%v, %v] (bound %d ranks)",
							name, n, capacity, q, got, lo, hi, b)
					}
				}
				if sum.Min != sorted[0] || sum.Max != sorted[n-1] {
					t.Fatalf("%s n=%d cap=%d: extremes not exact", name, n, capacity)
				}
			}
		}
	}
}

// TestSketchRankBoundUseful pins the bound's magnitude at the default
// buffer: a 50k-sample population must stay within 0.5% of rank — the
// accuracy PERFORMANCE.md documents for warehouse sweeps.
func TestSketchRankBoundUseful(t *testing.T) {
	src := prng.NewSource(9)
	const n = 50000
	sk := NewQuantileSketch()
	for i := 0; i < n; i++ {
		sk.Add(src.Float64())
	}
	if b := sk.RankErrorBound(); float64(b) > 0.005*n {
		t.Fatalf("rank error bound %d exceeds 0.5%% of %d samples", b, n)
	}
}

// TestSketchMergeOrderInvariance: merging per-trial sub-sketches in any
// order must give identical reports — the property that makes sketched
// latency summaries GOMAXPROCS-independent.
func TestSketchMergeOrderInvariance(t *testing.T) {
	src := prng.NewSource(10)
	const parts = 9
	subs := make([]*QuantileSketch, parts)
	for p := range subs {
		subs[p] = NewQuantileSketchCapacity(64)
		n := 100 + src.IntN(900)
		for i := 0; i < n; i++ {
			subs[p].Add(src.Float64() * 100)
		}
	}
	mergeAll := func(order []int) *QuantileSketch {
		m := NewQuantileSketchCapacity(64)
		for _, p := range order {
			m.Merge(subs[p])
		}
		return m
	}
	forward := make([]int, parts)
	backward := make([]int, parts)
	for i := range forward {
		forward[i], backward[parts-1-i] = i, i
	}
	ref := mergeAll(forward)
	for trial := 0; trial < 8; trial++ {
		order := backward
		if trial > 0 {
			order = src.Perm(parts)
		}
		m := mergeAll(order)
		if m.RankErrorBound() != ref.RankErrorBound() {
			t.Fatalf("order %v: bound=%d, ref bound=%d", order, m.RankErrorBound(), ref.RankErrorBound())
		}
		if got, want := m.Summary(), ref.Summary(); got != want {
			t.Fatalf("order %v: summary %+v, ref %+v", order, got, want)
		}
	}
}

// TestSketchMergedBoundHolds: the bound must survive merging — merged
// budgets add, and the merged answers must respect the combined bound
// against the exact pooled samples.
func TestSketchMergedBoundHolds(t *testing.T) {
	src := prng.NewSource(11)
	var all []float64
	m := NewQuantileSketchCapacity(128)
	for p := 0; p < 6; p++ {
		sub := NewQuantileSketchCapacity(128)
		n := 2000 + src.IntN(3000)
		for i := 0; i < n; i++ {
			x := -math.Log1p(-src.Float64()) * 100
			sub.Add(x)
			all = append(all, x)
		}
		m.Merge(sub)
	}
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	b := m.RankErrorBound()
	for _, qv := range summaryQs(m.Summary()) {
		q, got := qv[0], qv[1]
		target := int(math.Ceil(q * float64(len(all))))
		lo := sortedRank(sorted, target-b)
		hi := sortedRank(sorted, target+b)
		if got < lo || got > hi {
			t.Fatalf("q=%v: merged sketch %v outside rank band [%v, %v] (bound %d)", q, got, lo, hi, b)
		}
	}
}

func TestSketchEmpty(t *testing.T) {
	sk := NewQuantileSketch()
	if !math.IsNaN(sk.Summary().P50) {
		t.Fatal("empty sketch should answer NaN")
	}
	if sk.n != 0 || sk.Compacted() {
		t.Fatal("empty sketch has state")
	}
}

// TestSketchSmallAllocation pins what a small sketch costs: a trial's
// sketch holds a handful of completion samples, so its levels must grow
// with them instead of starting at the buffer's 4,097 floats (32 KB),
// and its Summary must flatten the levels once. The summary must still
// equal ExactQuantiles'.
func TestSketchSmallAllocation(t *testing.T) {
	const runs = 200
	src := prng.NewSource(11)
	for _, n := range []int{1, 4, 16} {
		xs := sketchDistributions(src, n)["censored"]
		sinks := make([]*QuantileSketch, runs)
		sums := make([]Quantiles, runs)
		build := func(r int) {
			sk := NewQuantileSketch()
			for _, x := range xs {
				sk.Add(x)
			}
			sinks[r] = sk
		}
		summarize := func(r int) { sums[r] = sinks[r].Summary() }
		// 376 and 344 bytes at n = 16 on amd64.
		if b := bytesPerRun(runs, build); b > 512 {
			t.Fatalf("n=%d: building a sketch allocated %d bytes, want at most 512", n, b)
		}
		if b := bytesPerRun(runs, summarize); b > 512 {
			t.Fatalf("n=%d: Summary allocated %d bytes, want at most 512", n, b)
		}
		if got, want := sums[0], ExactQuantiles(xs); got != want {
			t.Fatalf("n=%d: Summary %+v, exact %+v", n, got, want)
		}
	}
}

// bytesPerRun returns the heap bytes f allocates per call, averaged
// over runs calls f(0), …, f(runs−1).
func bytesPerRun(runs int, f func(r int)) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		f(r)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// Package stats provides the small statistical toolkit the experiment
// harness uses: means, medians, percentiles, quantile summaries and
// simple aggregation over repeated trials.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; an empty input returns NaN.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance; fewer than two samples
// return NaN.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0–100) using linear
// interpolation between order statistics. An empty input returns NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ExactQuantile returns the exact q-quantile (q in [0, 1]) of the
// samples under the nearest-rank definition: the ceil(q·n)-th smallest
// sample, the minimum for q = 0. No interpolation — the result is
// always one of the samples, which is what latency SLOs want ("the
// p99 completion was THIS tag's") and what keeps small-N estimates
// honest. +Inf samples are legal (undelivered tags); an empty input
// returns NaN. The selection is deterministic (median-of-three
// quickselect, no randomized pivots), so reports are byte-identical
// across runs and GOMAXPROCS settings.
func ExactQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	buf := append([]float64(nil), xs...)
	return quickselect(buf, rank-1)
}

// quickselect returns the k-th smallest element (0-based) of a,
// partitioning in place. Median-of-three pivots with a three-way
// partition: deterministic, O(n) expected, and immune to the
// duplicate-heavy inputs latency samples are (many tags complete in
// the same slot).
func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case a[i] < p:
				a[i], a[lt] = a[lt], a[i]
				lt++
				i++
			case a[i] > p:
				a[i], a[gt] = a[gt], a[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return a[lo]
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// Quantiles is the exact five-number latency summary capacity reports
// carry. All values are actual samples (nearest rank, ExactQuantile).
type Quantiles struct {
	// N is the sample count.
	N int
	// Min, P50, P90, P99 and Max are exact order statistics.
	Min, P50, P90, P99, Max float64
}

// ExactQuantiles computes the five-number summary of the samples.
func ExactQuantiles(xs []float64) Quantiles {
	return Quantiles{
		N:   len(xs),
		Min: ExactQuantile(xs, 0),
		P50: ExactQuantile(xs, 0.50),
		P90: ExactQuantile(xs, 0.90),
		P99: ExactQuantile(xs, 0.99),
		Max: ExactQuantile(xs, 1),
	}
}

// MinMax returns the extremes; an empty input returns (NaN, NaN).
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Summary is the per-series aggregate the figure tables print.
type Summary struct {
	N                  int
	Mean, Median, Std  float64
	Min, Max, P10, P90 float64
}

// Summarize computes a Summary of the samples.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Std:    math.Sqrt(Variance(xs)),
		Min:    min,
		Max:    max,
		P10:    Percentile(xs, 10),
		P90:    Percentile(xs, 90),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f median=%.3f std=%.3f min=%.3f p10=%.3f p90=%.3f max=%.3f",
		s.N, s.Mean, s.Median, s.Std, s.Min, s.P10, s.P90, s.Max)
}

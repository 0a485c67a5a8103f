package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Median(xs) != 2 {
		t.Fatalf("median %v", Median(xs))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n−1: 32/7.
	if math.Abs(Variance(xs)-32.0/7.0) > 1e-12 {
		t.Fatalf("variance %v", Variance(xs))
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("single-sample variance should be NaN")
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Percentile(xs, 0) != 10 || Percentile(xs, 100) != 40 {
		t.Fatal("percentile extremes wrong")
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Fatalf("interpolated median %v, want 25", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile reordered its input")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{5, -1, 3})
	if min != -1 || max != 5 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

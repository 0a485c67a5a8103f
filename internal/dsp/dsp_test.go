package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/prng"
)

func randVec(src *prng.Source, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = src.ComplexNorm()
	}
	return v
}

func randMat(src *prng.Source, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.ComplexNorm()
	}
	return m
}

// dist returns ‖a − b‖₂.
func dist(a, b Vec) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

func TestMatMulVecKnown(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3i)
	m.Set(1, 1, 0)
	y := m.MulVec(Vec{1, 1})
	if y[0] != 3 || y[1] != 3i {
		t.Fatalf("MulVec wrong: %v", y)
	}
}

func TestConjTransposeMulVecMatchesColumnDots(t *testing.T) {
	src := prng.NewSource(4)
	m := randMat(src, 9, 5)
	x := randVec(src, 9)
	fast := m.ConjTransposeMulVec(x)
	for c := 0; c < 5; c++ {
		var want complex128
		for r := 0; r < m.Rows; r++ {
			want += cmplx.Conj(m.At(r, c)) * x[r]
		}
		if cmplx.Abs(fast[c]-want) > 1e-10 {
			t.Fatalf("column %d: %v vs %v", c, fast[c], want)
		}
	}
}

func TestLeastSquaresRecoversExactSolution(t *testing.T) {
	// If y = A·x exactly, least squares must recover x.
	src := prng.NewSource(6)
	for trial := 0; trial < 50; trial++ {
		rows := src.IntN(20) + 5
		cols := src.IntN(rows-2) + 1
		a := randMat(src, rows, cols)
		x := randVec(src, cols)
		y := a.MulVec(x)
		got, err := LeastSquares(a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := dist(got, x); d > 1e-8*(1+x.Norm()) {
			t.Fatalf("trial %d: recovery error %v", trial, d)
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to every column of A.
	src := prng.NewSource(7)
	for trial := 0; trial < 30; trial++ {
		a := randMat(src, 15, 4)
		y := randVec(src, 15)
		x, err := LeastSquares(a, y)
		if err != nil {
			t.Fatal(err)
		}
		g := a.ConjTransposeMulVec(Residual(a, x, y))
		for c := 0; c < a.Cols; c++ {
			if cmplx.Abs(g[c]) > 1e-8 {
				t.Fatalf("residual not orthogonal to column %d", c)
			}
		}
	}
}

func TestLeastSquaresMinimizesOverPerturbations(t *testing.T) {
	src := prng.NewSource(8)
	a := randMat(src, 12, 3)
	y := randVec(src, 12)
	x, err := LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	base := Residual(a, x, y).NormSq()
	for trial := 0; trial < 50; trial++ {
		xp := append(Vec(nil), x...)
		xp[src.IntN(3)] += src.ComplexNorm() * 0.1
		if Residual(a, xp, y).NormSq() < base-1e-9 {
			t.Fatal("found a perturbation with smaller residual")
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	src := prng.NewSource(9)
	a := randMat(src, 3, 5)
	if _, err := LeastSquares(a, randVec(src, 3)); err == nil {
		t.Fatal("expected error on under-determined system")
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	a := NewMat(4, 2)
	src := prng.NewSource(10)
	// Column 1 = 2 × column 0: rank 1.
	for r := 0; r < 4; r++ {
		v := src.ComplexNorm()
		a.Set(r, 0, v)
		a.Set(r, 1, 2*v)
	}
	if _, err := LeastSquares(a, randVec(src, 4)); err == nil {
		t.Fatal("expected rank-deficiency error")
	}
}

func TestLeastSquaresEmptyCols(t *testing.T) {
	a := NewMat(3, 0)
	x, err := LeastSquares(a, NewVec(3))
	if err != nil || len(x) != 0 {
		t.Fatalf("empty system should solve trivially, got %v %v", x, err)
	}
}

func TestLeastSquaresRHSMismatch(t *testing.T) {
	src := prng.NewSource(11)
	a := randMat(src, 4, 2)
	if _, err := LeastSquares(a, NewVec(3)); err == nil {
		t.Fatal("expected rhs length error")
	}
}

func TestDBConversions(t *testing.T) {
	if math.Abs(DBToLinear(10)-10) > 1e-12 {
		t.Fatal("10 dB should be 10x")
	}
	if math.Abs(DBToLinear(3)-1.9952623) > 1e-6 {
		t.Fatal("3 dB wrong")
	}
	if math.Abs(LinearToDB(100)-20) > 1e-12 {
		t.Fatal("100x should be 20 dB")
	}
	if !math.IsInf(LinearToDB(0), -1) {
		t.Fatal("0 power should be -Inf dB")
	}
	for _, db := range []float64{-30, -3, 0, 7.7, 25} {
		if math.Abs(LinearToDB(DBToLinear(db))-db) > 1e-9 {
			t.Fatalf("dB round trip failed at %v", db)
		}
	}
}

func TestSNRdB(t *testing.T) {
	if math.Abs(SNRdB(100, 1)-20) > 1e-12 {
		t.Fatal("SNR 100:1 should be 20 dB")
	}
	if !math.IsInf(SNRdB(1, 0), 1) {
		t.Fatal("zero noise should be +Inf SNR")
	}
}

func BenchmarkLeastSquares32x8(b *testing.B) {
	src := prng.NewSource(12)
	a := randMat(src, 32, 8)
	y := randVec(src, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec128x64(b *testing.B) {
	src := prng.NewSource(13)
	a := randMat(src, 128, 64)
	x := randVec(src, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}

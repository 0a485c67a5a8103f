package cs

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
	"repro/internal/prng"
)

// sparseProblem builds a random binary measurement matrix (density 0.5,
// as Buzz's pattern matrix A) and a k-sparse complex ground truth.
func sparseProblem(src *prng.Source, rows, cols, k int, noiseSigma float64) (*dsp.Mat, dsp.Vec, []int, dsp.Vec) {
	a := dsp.NewMat(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if src.Bool() {
				a.Set(r, c, 1)
			}
		}
	}
	perm := src.Perm(cols)
	support := perm[:k]
	truth := dsp.NewVec(cols)
	for _, c := range support {
		// Channel-tap-like coefficients: magnitude in [0.5, 1.5],
		// random phase.
		mag := 0.5 + src.Float64()
		phase := 2 * math.Pi * src.Float64()
		truth[c] = cmplx.Rect(mag, phase)
	}
	y := a.MulVecInto(dsp.NewVec(a.Rows), truth)
	if noiseSigma > 0 {
		for i := range y {
			y[i] += src.ComplexNorm() * complex(noiseSigma, 0)
		}
	}
	return a, y, support, truth
}

func supportsEqual(got []int, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	set := map[int]bool{}
	for _, c := range want {
		set[c] = true
	}
	for _, c := range got {
		if !set[c] {
			return false
		}
	}
	return true
}

func TestOMPExactRecoveryNoiseless(t *testing.T) {
	src := prng.NewSource(1)
	for trial := 0; trial < 40; trial++ {
		k := src.IntN(6) + 1
		cols := 40 + src.IntN(40)
		rows := 8*k + 10 // comfortably above K log(a)
		a, y, support, truth := sparseProblem(src, rows, cols, k, 0)
		res, err := OMP(a, y, OMPOptions{MaxSparsity: 2*k + 4, MinCoeffMag: 0.1, DCAtom: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !supportsEqual(res.Support, support) {
			t.Fatalf("trial %d: support %v, want %v", trial, res.Support, support)
		}
		for i, c := range res.Support {
			if cmplx.Abs(res.Coeffs[i]-truth[c]) > 1e-8 {
				t.Fatalf("trial %d: coefficient at %d recovered %v, want %v", trial, c, res.Coeffs[i], truth[c])
			}
		}
	}
}

func TestOMPNoisyRecovery(t *testing.T) {
	src := prng.NewSource(2)
	hits := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		k := 4
		a, y, support, _ := sparseProblem(src, 60, 50, k, 0.05)
		res, err := OMP(a, y, OMPOptions{MaxSparsity: k + 4, ResidualTol: 0.08, MinCoeffMag: 0.2, DCAtom: true})
		if err != nil && err != ErrNoConvergence {
			t.Fatal(err)
		}
		if supportsEqual(res.Support, support) {
			hits++
		}
	}
	if hits < trials*8/10 {
		t.Fatalf("noisy OMP support recovery rate %d/%d too low", hits, trials)
	}
}

func TestOMPZeroInput(t *testing.T) {
	a := dsp.NewMat(5, 8)
	res, err := OMP(a, dsp.NewVec(5), OMPOptions{MaxSparsity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) != 0 || res.Residual != 0 {
		t.Fatalf("zero input should recover nothing: %+v", res)
	}
}

func TestOMPDimensionErrors(t *testing.T) {
	a := dsp.NewMat(5, 8)
	if _, err := OMP(a, dsp.NewVec(4), OMPOptions{MaxSparsity: 1}); err == nil {
		t.Fatal("expected rhs mismatch error")
	}
	if _, err := OMP(a, dsp.NewVec(5), OMPOptions{}); err == nil {
		t.Fatal("expected MaxSparsity error")
	}
}

func TestOMPDuplicateColumns(t *testing.T) {
	// Two identical columns (two candidate ids with the same pattern —
	// the failure stage C must survive, not crash on).
	a := dsp.NewMat(6, 2)
	y := dsp.NewVec(6)
	for r := 0; r < 6; r++ {
		v := complex(float64(r%2), 0)
		a.Set(r, 0, v)
		a.Set(r, 1, v)
		y[r] = v
	}
	res, err := OMP(a, y, OMPOptions{MaxSparsity: 2})
	if err != nil && err != ErrNoConvergence {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(res.Support) != 1 {
		t.Fatalf("expected a single atom from duplicate columns, got %v", res.Support)
	}
}

func TestOMPRespectsSparsityBudget(t *testing.T) {
	src := prng.NewSource(3)
	a, y, _, _ := sparseProblem(src, 30, 40, 6, 0)
	res, _ := OMP(a, y, OMPOptions{MaxSparsity: 3})
	if len(res.Support) > 3 {
		t.Fatalf("support %v exceeds budget 3", res.Support)
	}
}

func TestOMPRecoversCleanProblemWithDCAtom(t *testing.T) {
	src := prng.NewSource(7)
	a, y, support, _ := sparseProblem(src, 60, 30, 3, 0)
	omp, err := OMP(a, y, OMPOptions{MaxSparsity: 6, MinCoeffMag: 0.2, DCAtom: true})
	if err != nil {
		t.Fatal(err)
	}
	if !supportsEqual(omp.Support, support) {
		t.Fatalf("OMP missed: %v vs %v", omp.Support, support)
	}
}

func BenchmarkOMP_K8_A80(b *testing.B) {
	src := prng.NewSource(8)
	a, y, _, _ := sparseProblem(src, 60, 80, 8, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OMP(a, y, OMPOptions{MaxSparsity: 12, ResidualTol: 0.05, MinCoeffMag: 0.2}); err != nil && err != ErrNoConvergence {
			b.Fatal(err)
		}
	}
}

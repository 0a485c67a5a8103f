package cs

import (
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"repro/internal/dsp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// binaryProblem draws a rows×cols binary matrix whose entries are set
// with probability density, in both the bitset form OMPBits reads and
// the dense form OMP reads, plus y = A·z + σn for a k-sparse z with
// channel-tap-like entries (magnitude in [mag, 2·mag], random phase).
func binaryProblem(src *prng.Source, rows, cols, k int, density, mag, sigma float64) (*BinaryMat, *dsp.Mat, dsp.Vec) {
	bm := NewBinaryMatScratch(rows, cols, nil)
	dense := dsp.NewMat(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if src.Float64() < density {
				bm.Col(c)[r/64] |= 1 << (r % 64)
				dense.Set(r, c, 1)
			}
		}
	}
	if k > cols {
		k = cols
	}
	truth := dsp.NewVec(cols)
	for _, c := range src.Perm(cols)[:k] {
		truth[c] = cmplx.Rect(mag*(1+src.Float64()), 2*math.Pi*src.Float64())
	}
	y := dense.MulVecInto(dsp.NewVec(dense.Rows), truth)
	for i := range y {
		y[i] += src.ComplexNorm() * complex(sigma, 0)
	}
	return bm, dense, y
}

// TestOMPBitsMatchesDense pins OMPBits against the dense Householder
// solver on random binary problems, with and without the DC atom: the
// two must pick the same atoms in the same number of iterations, stop
// for the same reason, and the normal-equation coefficients and
// residual must agree with the QR ones to 1e-9 relative to ‖y‖ (the
// problems are well conditioned, so squaring the condition number
// costs a few digits at most). The trials must cover each way a
// pursuit stops: at the residual tolerance, at the support budget
// (ErrNoConvergence), and at the reporting floor (short of both, no
// error).
func TestOMPBitsMatchesDense(t *testing.T) {
	const tol = 1e-9
	src := prng.NewSource(41)
	var atTol, atBudget, atFloor int
	for trial := 0; trial < 60; trial++ {
		rows := 24 + src.IntN(40)
		cols := 16 + src.IntN(100)
		k := 1 + src.IntN(8)
		dc := trial%2 == 1
		bm, dense, y := binaryProblem(src, rows, cols, k, 0.5, 1, 0.05)
		opts := OMPOptions{MaxSparsity: k + 3, ResidualTol: 0.01, MinCoeffMag: 0.2, DCAtom: dc}
		switch trial % 3 {
		case 1: // a tolerance the noise lets the pursuit reach
			opts.ResidualTol = 1.5 * 0.05 * math.Sqrt(float64(rows)) / y.Norm()
		case 2: // no reporting floor, so no floor stop
			opts.MinCoeffMag = 0
		}
		want, werr := OMP(dense, y, opts)
		got, gerr := OMPBits(bm, y, opts)
		if werr != gerr {
			t.Fatalf("trial %d (DCAtom=%v): error %v, dense %v", trial, dc, gerr, werr)
		}
		if !reflect.DeepEqual(got.Support, want.Support) || got.Iterations != want.Iterations {
			t.Fatalf("trial %d (DCAtom=%v): support %v in %d iterations, dense %v in %d",
				trial, dc, got.Support, got.Iterations, want.Support, want.Iterations)
		}
		scale := y.Norm()
		for i := range got.Coeffs {
			if d := cmplx.Abs(got.Coeffs[i] - want.Coeffs[i]); d > tol*scale {
				t.Fatalf("trial %d (DCAtom=%v): coefficient %d off by %g (‖y‖ %g)", trial, dc, got.Support[i], d, scale)
			}
		}
		if d := math.Abs(got.Residual - want.Residual); d > tol*scale {
			t.Fatalf("trial %d (DCAtom=%v): residual %g, dense %g", trial, dc, got.Residual, want.Residual)
		}
		switch {
		case gerr == ErrNoConvergence:
			atBudget++
		case got.Residual <= opts.ResidualTol*scale:
			atTol++
		default:
			atFloor++
		}
	}
	t.Logf("stopped at the tolerance %d, at the budget %d, at the floor %d", atTol, atBudget, atFloor)
	if atTol == 0 || atBudget == 0 || atFloor == 0 {
		t.Fatalf("trials stopped at the tolerance %d, at the budget %d and at the floor %d times: want each stop covered",
			atTol, atBudget, atFloor)
	}
}

// TestOMPBitsScratchMatchesHeap pins that the arena-backed pursuit
// returns exactly the heap pursuit's result, for both DC-atom modes, on
// an arena dirtied by a differently shaped solve.
func TestOMPBitsScratchMatchesHeap(t *testing.T) {
	for _, dc := range []bool{false, true} {
		bm, _, y := binaryProblem(prng.NewSource(102), 96, 300, 9, 0.5, 5, 1)
		opts := OMPOptions{MaxSparsity: 17, ResidualTol: 0.02, MinCoeffMag: 2, DCAtom: dc}
		plain, perr := OMPBits(bm, y, opts)

		sc := scratch.New()
		wb, _, wy := binaryProblem(prng.NewSource(78), 40, 500, 4, 0.5, 5, 1)
		wopts := opts
		wopts.Scratch = sc
		if _, err := OMPBits(wb, wy, wopts); err != nil && err != ErrNoConvergence {
			t.Fatal(err)
		}
		sc.Reset()

		opts.Scratch = sc
		arena, aerr := OMPBits(bm, y, opts)
		if perr != aerr {
			t.Fatalf("DCAtom=%v: error divergence: heap %v, arena %v", dc, perr, aerr)
		}
		if !reflect.DeepEqual(plain, arena) {
			t.Fatalf("DCAtom=%v: scratch OMPBits diverged:\nheap:  %+v\narena: %+v", dc, plain, arena)
		}
	}
}

// stageCProblem is the stage-C shape the headline workload solves: 96
// pattern rows, 510 surviving candidates, 14 present tags at 14–20 dB
// over unit noise (14 pursuit iterations, the headline mean), and the
// options identify.Run passes (support budget 17, residual tolerance at
// 1.5× the noise floor, DC atom on).
func stageCProblem() (*BinaryMat, dsp.Vec, OMPOptions) {
	bm, _, y := binaryProblem(prng.NewSource(510), 96, 510, 14, 0.5, 5, 1)
	opts := OMPOptions{
		MaxSparsity: 17,
		ResidualTol: 1.5 * math.Sqrt(96) / y.Norm(),
		MinCoeffMag: 2,
		DCAtom:      true,
	}
	return bm, y, opts
}

// TestOMPBitsSteadyStateAllocBound pins the pursuit's allocation budget
// on a warm arena at the stage-C shape: every working buffer comes from
// the arena, so only the escaping Result (its header and the growing
// support and coefficient slices) may touch the heap.
func TestOMPBitsSteadyStateAllocBound(t *testing.T) {
	bm, y, opts := stageCProblem()
	sc := scratch.New()
	opts.Scratch = sc
	run := func() {
		if _, err := OMPBits(bm, y, opts); err != nil && err != ErrNoConvergence {
			t.Fatal(err)
		}
		sc.Reset()
	}
	run() // warm-up
	if allocs := testing.AllocsPerRun(20, run); allocs > 12 {
		t.Fatalf("steady-state OMPBits allocates %v times, budget 12", allocs)
	}
}

// BenchmarkOMPBits_StageC times one warm stage-C pursuit at the shape
// identify.Run meets on the headline workload.
func BenchmarkOMPBits_StageC(b *testing.B) {
	bm, y, opts := stageCProblem()
	sc := scratch.New()
	opts.Scratch = sc
	if _, err := OMPBits(bm, y, opts); err != nil && err != ErrNoConvergence {
		b.Fatal(err) // warm the arena
	}
	sc.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OMPBits(bm, y, opts); err != nil && err != ErrNoConvergence {
			b.Fatal(err)
		}
		sc.Reset()
	}
}

// FuzzOMPBits drives OMPBits over arbitrary binary matrices — empty,
// duplicate and all-ones columns included, 1 to 320 rows, so one to five
// words per column — and arbitrary bounded observations, checking its
// output invariants and that an arena-backed run equals a heap-backed
// one.
func FuzzOMPBits(f *testing.F) {
	f.Add(uint64(1), uint8(96), uint8(200), uint8(17), uint8(128), true, []byte(nil))
	f.Add(uint64(2), uint8(8), uint8(3), uint8(5), uint8(255), false, []byte{1, 2, 3})
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(0), true, []byte{0})
	f.Add(uint64(4), uint8(40), uint8(60), uint8(30), uint8(20), true, []byte{127, 128, 0, 255})
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, sparsity, density uint8, dc bool, ys []byte) {
		src := prng.NewSource(seed)
		m := 1 + int(rows)*319/255
		n := 1 + int(cols)
		k := 1 + src.IntN(8)
		bm, _, y := binaryProblem(src, m, n, k, float64(density)/255, 1, 0.1)
		if len(ys) > 0 {
			// The fuzzer's bytes, when given, are the observation.
			for r := range y {
				y[r] = complex(float64(int8(ys[2*r%len(ys)])), float64(int8(ys[(2*r+1)%len(ys)])))
			}
		}
		opts := OMPOptions{
			MaxSparsity: 1 + int(sparsity)%32,
			ResidualTol: float64(density%16) / 64,
			MinCoeffMag: float64(density%4) / 8,
			DCAtom:      dc,
		}
		heap, herr := OMPBits(bm, y, opts)
		if herr != nil && herr != ErrNoConvergence {
			t.Fatalf("unexpected error: %v", herr)
		}
		if len(heap.Coeffs) != len(heap.Support) {
			t.Fatalf("%d coefficients for %d support entries", len(heap.Coeffs), len(heap.Support))
		}
		for i, c := range heap.Support {
			if c < 0 || c >= n {
				t.Fatalf("support index %d out of [0, %d)", c, n)
			}
			if i > 0 && c <= heap.Support[i-1] {
				t.Fatalf("support %v not unique and ascending", heap.Support)
			}
		}
		if r := heap.Residual; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("residual %v not finite and non-negative", r)
		}
		if heap.Iterations > opts.MaxSparsity {
			t.Fatalf("%d iterations over a support budget of %d", heap.Iterations, opts.MaxSparsity)
		}
		opts.Scratch = scratch.New()
		arena, aerr := OMPBits(bm, y, opts)
		if aerr != herr || !reflect.DeepEqual(arena, heap) {
			t.Fatalf("arena run diverged:\nheap:  %+v (%v)\narena: %+v (%v)", heap, herr, arena, aerr)
		}
	})
}

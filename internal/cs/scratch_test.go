package cs

import (
	"reflect"
	"testing"

	"repro/internal/dsp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

func scratchProblem(seed uint64, rows, cols, k int) (*dsp.Mat, dsp.Vec) {
	src := prng.NewSource(seed)
	a := dsp.NewMat(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if src.Bool() {
				a.Set(r, c, 1)
			}
		}
	}
	truth := dsp.NewVec(cols)
	for _, c := range src.Perm(cols)[:k] {
		truth[c] = complex(0.5+src.Float64(), src.Float64())
	}
	y := a.MulVecInto(dsp.NewVec(a.Rows), truth)
	for i := range y {
		y[i] += src.ComplexNorm() * complex(0.05, 0)
	}
	return a, y
}

// TestOMPScratchMatchesHeap pins that the arena-backed pursuit returns
// exactly the heap pursuit's result, for both DC-atom modes.
func TestOMPScratchMatchesHeap(t *testing.T) {
	for _, dc := range []bool{false, true} {
		a, y := scratchProblem(101, 48, 64, 6)
		opts := OMPOptions{MaxSparsity: 10, ResidualTol: 0.05, MinCoeffMag: 0.2, DCAtom: dc}
		plain, perr := OMP(a, y, opts)

		sc := scratch.New()
		// Dirty the arena with a differently-shaped solve first.
		wa, wy := scratchProblem(77, 30, 40, 4)
		wopts := opts
		wopts.Scratch = sc
		if _, err := OMP(wa, wy, wopts); err != nil && err != ErrNoConvergence {
			t.Fatal(err)
		}
		sc.Reset()

		opts.Scratch = sc
		arena, aerr := OMP(a, y, opts)
		if (perr == nil) != (aerr == nil) {
			t.Fatalf("DCAtom=%v: error divergence: heap %v, arena %v", dc, perr, aerr)
		}
		if !reflect.DeepEqual(plain, arena) {
			t.Fatalf("DCAtom=%v: scratch OMP diverged:\nheap:  %+v\narena: %+v", dc, plain, arena)
		}
	}
}

// TestOMPSteadyStateAllocBound pins the solver's allocation budget on a
// warm arena: only the escaping Result (support, coefficients, and the
// two container headers) may touch the heap.
func TestOMPSteadyStateAllocBound(t *testing.T) {
	a, y := scratchProblem(55, 48, 64, 6)
	sc := scratch.New()
	opts := OMPOptions{MaxSparsity: 10, ResidualTol: 0.05, MinCoeffMag: 0.2, DCAtom: true, Scratch: sc}
	run := func() {
		if _, err := OMP(a, y, opts); err != nil && err != ErrNoConvergence {
			t.Fatal(err)
		}
		sc.Reset()
	}
	run() // warm-up
	if allocs := testing.AllocsPerRun(20, run); allocs > 12 {
		t.Fatalf("steady-state OMP allocates %v times, budget 12", allocs)
	}
}

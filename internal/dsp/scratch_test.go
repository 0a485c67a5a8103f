package dsp

import (
	"math/cmplx"
	"testing"

	"repro/internal/prng"
	"repro/internal/scratch"
)

// TestLeastSquaresScratchMatchesHeap pins that the arena-backed QR solve
// is bit-identical to the heap solve.
func TestLeastSquaresScratchMatchesHeap(t *testing.T) {
	src := prng.NewSource(21)
	a := randMat(src, 24, 6)
	y := randVec(src, 24)
	plain, perr := LeastSquares(a, y)
	if perr != nil {
		t.Fatal(perr)
	}
	sc := scratch.New()
	// Dirty the arena with a different-shaped solve first.
	if _, err := LeastSquaresScratch(randMat(src, 10, 3), randVec(src, 10), sc); err != nil {
		t.Fatal(err)
	}
	sc.Reset()
	arena, aerr := LeastSquaresScratch(a, y, sc)
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i := range plain {
		if plain[i] != arena[i] {
			t.Fatalf("solution diverged at %d: %v vs %v", i, plain[i], arena[i])
		}
	}
}

// TestLeastSquaresScratchAllocationFree: on a warm arena the QR solve
// must not touch the heap at all — the returned solution itself lives in
// the arena.
func TestLeastSquaresScratchAllocationFree(t *testing.T) {
	src := prng.NewSource(23)
	a := randMat(src, 24, 6)
	y := randVec(src, 24)
	sc := scratch.New()
	run := func() {
		mark := sc.Mark()
		if _, err := LeastSquaresScratch(a, y, sc); err != nil {
			t.Fatal(err)
		}
		sc.Release(mark)
	}
	run()
	sc.Reset()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm LeastSquaresScratch allocates %v times, want 0", allocs)
	}
}

func TestIntoVariantsMatchAllocatingForms(t *testing.T) {
	src := prng.NewSource(25)
	m := randMat(src, 9, 5)
	x := randVec(src, 5)
	xr := randVec(src, 9)

	want := m.MulVec(x)
	got := m.MulVecInto(make(Vec, 9), x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("MulVecInto diverged at %d", i)
		}
	}

	wantC := m.ConjTransposeMulVec(xr)
	gotC := m.ConjTransposeMulVecInto(randVec(src, 5), xr) // dirty dst must be overwritten
	for i := range wantC {
		if wantC[i] != gotC[i] {
			t.Fatalf("ConjTransposeMulVecInto diverged at %d", i)
		}
	}

	wantR := Residual(m, x, xr)
	gotR := ResidualInto(make(Vec, 9), m, x, xr)
	for i := range wantR {
		if wantR[i] != gotR[i] {
			t.Fatalf("ResidualInto diverged at %d", i)
		}
	}

	col := make(Vec, m.Rows)
	for c := 0; c < m.Cols; c++ {
		for r := range col {
			col[r] = m.At(r, c)
		}
		if got, want := m.ColNorm(c), col.Norm(); cmplx.Abs(complex(got-want, 0)) > 1e-12 {
			t.Fatalf("ColNorm(%d) = %v, want %v", c, got, want)
		}
	}
}

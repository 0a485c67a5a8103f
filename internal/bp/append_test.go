package bp

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// refAppendRow is appendRow as it was before its bit select: the row's
// residual subtracts h_i under a branch on each collider's bit.
func refAppendRow(st *descentState, g *Graph, row int, obs complex128, b bits.Vector, locked []bool) {
	r := obs
	for _, i := range g.rowCols[row] {
		if b[i] {
			r -= g.taps[i]
		}
	}
	st.residual = append(st.residual, r)
	for _, i := range g.rowActive[row] {
		if locked != nil && locked[i] {
			st.gain[i] = math.Inf(-1)
		} else {
			st.sum[i] += r
			st.gain[i] = st.gainOf(g, i)
		}
	}
}

// refRederive is rederive as it was before its bit select: the flip
// sign is set under a branch on the tag's bit.
func refRederive(st *descentState, g *Graph, b bits.Vector, locked []bool) {
	for _, i := range g.activeTags {
		if b[i] {
			st.bSign[i] = -1
		} else {
			st.bSign[i] = 1
		}
		if locked != nil && locked[i] {
			st.gain[i] = math.Inf(-1)
			continue
		}
		var s complex128
		for _, row := range g.colRows[i] {
			s += st.residual[row]
		}
		st.sum[i] = s
		st.gain[i] = st.gainOf(g, i)
	}
}

// checkStatesEqual fails unless got and want hold bitwise-equal
// residuals, and S-sums, flip signs and gains on every tag.
func checkStatesEqual(t *testing.T, got, want *descentState, what string) {
	t.Helper()
	if len(got.residual) != len(want.residual) {
		t.Fatalf("%s: residual length %d, reference %d", what, len(got.residual), len(want.residual))
	}
	for row := range want.residual {
		if !bitsEqual(got.residual[row], want.residual[row]) {
			t.Fatalf("%s: residual[%d] = %v, reference %v", what, row, got.residual[row], want.residual[row])
		}
	}
	for i := range want.sum {
		switch {
		case !bitsEqual(got.sum[i], want.sum[i]):
			t.Fatalf("%s: S[%d] = %v, reference %v", what, i, got.sum[i], want.sum[i])
		case math.Float64bits(got.bSign[i]) != math.Float64bits(want.bSign[i]):
			t.Fatalf("%s: bSign[%d] = %v, reference %v", what, i, got.bSign[i], want.bSign[i])
		case math.Float64bits(got.gain[i]) != math.Float64bits(want.gain[i]):
			t.Fatalf("%s: gain[%d] = %v, reference %v", what, i, got.gain[i], want.gain[i])
		}
	}
}

// TestAppendRowAndRederiveMatchReference pins the bit-selected appendRow
// and rederive to their branchy forms bitwise: residual, S-sums, flip
// signs and gains, over random rows and bits on graphs with zero taps
// (+0 and −0 parts), observations with −0 parts, and tags both locked
// in place and deactivated.
func TestAppendRowAndRederiveMatchReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zeroObs := []complex128{0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero)}
	for seed := uint64(1); seed <= 40; seed++ {
		src := prng.NewSource(seed)
		k, l := 1+src.IntN(12), 1+src.IntN(24)
		taps := make([]complex128, k)
		for i := range taps {
			switch src.IntN(4) {
			case 0:
				taps[i] = zeroObs[src.IntN(len(zeroObs))]
			default:
				taps[i] = complex(src.NormFloat64(), src.NormFloat64())
			}
		}
		var g Graph
		g.Reset(k, taps)
		locked := make([]bool, k)
		for i := range locked {
			switch src.IntN(5) {
			case 0:
				g.DeactivateTag(i)
				locked[i] = true
			case 1:
				locked[i] = true
			}
		}
		b := bits.Random(src, k)
		got, want := newTestState(k, l), newTestState(k, l)
		got.residual, want.residual = got.residual[:0], want.residual[:0]
		for _, st := range []*descentState{got, want} {
			for i := range st.bSign {
				st.bSign[i] = float64(1 - 2*bits.Index(b[i]))
			}
		}
		for row := 0; row < l; row++ {
			g.AppendRow(bits.Random(src, k))
			obs := complex(src.NormFloat64(), src.NormFloat64())
			if src.IntN(3) == 0 {
				obs = zeroObs[src.IntN(len(zeroObs))]
			}
			got.appendRow(&g, row, obs, b, locked)
			refAppendRow(want, &g, row, obs, b, locked)
			checkStatesEqual(t, got, want, "appendRow")
		}
		for _, lk := range [][]bool{locked, nil} {
			b = bits.Random(src, k)
			got.rederive(&g, b, lk)
			refRederive(want, &g, b, lk)
			checkStatesEqual(t, got, want, "rederive")
		}
	}
}

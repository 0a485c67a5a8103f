// Package dsp provides the complex-valued signal-processing and linear
// algebra kernels the reproduction relies on: complex128 vectors, dense
// complex matrices, Householder-QR least squares, and power/SNR
// bookkeeping.
//
// The compressive-sensing stage of Buzz (§5C) repeatedly solves small
// complex least-squares problems (the OMP projection step), and the
// reader estimates complex channel coefficients from known patterns; both
// reduce to the primitives here. Everything is written against stdlib
// only — no BLAS — which is comfortably fast at the problem sizes the
// paper operates at (matrices of a few hundred rows).
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/scratch"
)

// Vec is a complex-valued vector.
type Vec []complex128

// NewVec allocates a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vec) Norm() float64 {
	return math.Sqrt(v.NormSq())
}

// NormSq returns ‖v‖₂² without the square root.
func (v Vec) NormSq() float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// Mat is a dense complex matrix stored row-major.
type Mat struct {
	Rows, Cols int
	Data       []complex128
}

// NewMat allocates a zero rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// ColNorm returns ‖column c‖₂ without materializing the column. OMP's
// score normalization calls this once per column per solve.
func (m *Mat) ColNorm(c int) float64 {
	var s float64
	for r := 0; r < m.Rows; r++ {
		x := m.At(r, c)
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// MulVecInto computes m·x into dst (which must have length Rows) and
// returns dst. The allocation-free form the hot path uses.
func (m *Mat) MulVecInto(dst Vec, x Vec) Vec {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("dsp: MulVec dimension mismatch %d cols vs %d", m.Cols, len(x)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("dsp: MulVecInto dst length %d != rows %d", len(dst), m.Rows))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s complex128
		for c, a := range row {
			s += a * x[c]
		}
		dst[r] = s
	}
	return dst
}

// ConjTransposeMulVecInto computes mᴴ·x into dst (which must have length
// Cols) and returns dst. The allocation-free form the hot path uses.
func (m *Mat) ConjTransposeMulVecInto(dst Vec, x Vec) Vec {
	if len(x) != m.Rows {
		panic("dsp: ConjTransposeMulVec dimension mismatch")
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("dsp: ConjTransposeMulVecInto dst length %d != cols %d", len(dst), m.Cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		xr := x[r]
		for c, a := range row {
			dst[c] += cmplx.Conj(a) * xr
		}
	}
	return dst
}

// LeastSquaresScratch solves min_x ‖A·x − y‖₂ for a full-column-rank A
// with Rows ≥ Cols using Householder QR. It returns the minimizer. An
// error is returned when the system is under-determined or numerically
// rank deficient (a diagonal of R collapses below tol relative to the
// largest). Every working buffer — the QR workspace, the rotated
// right-hand side, and the Householder vector — is drawn from sc. The
// returned solution also comes from sc and is valid until the caller's
// next Release or Reset of sc. A nil sc falls back to plain allocation
// (identical numerics either way).
func LeastSquaresScratch(a *Mat, y Vec, sc *scratch.Scratch) (Vec, error) {
	m, n := a.Rows, a.Cols
	if len(y) != m {
		return nil, fmt.Errorf("dsp: LeastSquares rhs length %d != rows %d", len(y), m)
	}
	if m < n {
		return nil, fmt.Errorf("dsp: LeastSquares under-determined (%d rows < %d cols)", m, n)
	}
	if n == 0 {
		return Vec{}, nil
	}
	// The solution outlives this call: allocate it before the mark so the
	// internal workspace can be released on every return path.
	x := Vec(sc.Complex(n))
	mark := sc.Mark()
	defer sc.Release(mark)

	// Work on copies: R overwrites the matrix, b accumulates Qᴴy.
	r := &Mat{Rows: m, Cols: n, Data: sc.Complex(m * n)}
	copy(r.Data, a.Data)
	b := Vec(sc.Complex(m))
	copy(b, y)
	vbuf := Vec(sc.Complex(m))

	// Householder reflections column by column.
	maxDiag := 0.0
	for k := 0; k < n; k++ {
		// Compute the norm of the k-th column below the diagonal.
		var colNorm float64
		for i := k; i < m; i++ {
			x := r.At(i, k)
			colNorm += real(x)*real(x) + imag(x)*imag(x)
		}
		colNorm = math.Sqrt(colNorm)
		if colNorm == 0 {
			return nil, fmt.Errorf("dsp: LeastSquares rank deficient at column %d", k)
		}
		// alpha = -exp(i·arg(r_kk)) * colNorm keeps the reflection stable.
		akk := r.At(k, k)
		phase := complex(1, 0)
		if akk != 0 {
			phase = akk / complex(cmplx.Abs(akk), 0)
		}
		alpha := -phase * complex(colNorm, 0)

		// v = x − alpha·e₁ (stored over the column), then normalize.
		var vNormSq float64
		v := vbuf[:m-k]
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		v[0] -= alpha
		for _, x := range v {
			vNormSq += real(x)*real(x) + imag(x)*imag(x)
		}
		if vNormSq > 0 {
			// Apply H = I − 2·v·vᴴ/‖v‖² to the trailing matrix and to b.
			for c := k; c < n; c++ {
				var proj complex128
				for i := k; i < m; i++ {
					proj += cmplx.Conj(v[i-k]) * r.At(i, c)
				}
				proj *= complex(2/vNormSq, 0)
				for i := k; i < m; i++ {
					r.Set(i, c, r.At(i, c)-proj*v[i-k])
				}
			}
			var proj complex128
			for i := k; i < m; i++ {
				proj += cmplx.Conj(v[i-k]) * b[i]
			}
			proj *= complex(2/vNormSq, 0)
			for i := k; i < m; i++ {
				b[i] -= proj * v[i-k]
			}
		}
		if d := cmplx.Abs(r.At(k, k)); d > maxDiag {
			maxDiag = d
		}
	}

	// Rank check against the largest diagonal entry.
	const tol = 1e-10
	for k := 0; k < n; k++ {
		if cmplx.Abs(r.At(k, k)) < tol*maxDiag {
			return nil, fmt.Errorf("dsp: LeastSquares numerically rank deficient at column %d", k)
		}
	}

	// Back substitution on the upper-triangular R.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		x[i] = s / r.At(i, i)
	}
	return x, nil
}

// ResidualInto computes y − A·x into dst (which must have length Rows)
// and returns dst. The allocation-free form the hot path uses.
func ResidualInto(dst Vec, a *Mat, x, y Vec) Vec {
	a.MulVecInto(dst, x)
	if len(y) != len(dst) {
		panic(fmt.Sprintf("dsp: ResidualInto rhs length %d != rows %d", len(y), len(dst)))
	}
	for i := range dst {
		dst[i] = y[i] - dst[i]
	}
	return dst
}

// DBToLinear converts a decibel power ratio to linear scale.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to decibels. Zero or negative
// input maps to -Inf, which keeps comparisons well ordered.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// SNRdB computes the signal-to-noise ratio in dB given per-sample signal
// power and noise power.
func SNRdB(signalPower, noisePower float64) float64 {
	if noisePower <= 0 {
		return math.Inf(1)
	}
	return LinearToDB(signalPower / noisePower)
}

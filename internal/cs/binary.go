package cs

import (
	"fmt"
	"math"
	mbits "math/bits"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/scratch"
)

// BinaryMat is a binary measurement matrix stored as column bitsets:
// column c's rows live in Words words of 64 row-bits each. Stage C's
// pattern matrix A′ is binary by construction (tags either transmit in
// a pattern row or stay silent), which makes every quantity OMP needs
// integer-combinatorial:
//
//   - column norms are popcounts,
//   - Gram entries AᵀA are AND-popcounts of two columns,
//   - correlations Aᴴy are sums of observation entries at set bits.
//
// OMPBits exploits all three; no complex m×s matrix is ever formed.
type BinaryMat struct {
	Rows, Cols int
	// Words is the stride: number of 64-bit words per column.
	Words int
	// Bits holds the columns contiguously: column c occupies
	// Bits[c*Words : (c+1)*Words], row r at word r/64, bit r%64. Bits
	// beyond Rows must be zero.
	Bits []uint64
}

// NewBinaryMatScratch sizes a rows×cols binary matrix with its bitset
// drawn from sc (nil sc falls back to the heap).
func NewBinaryMatScratch(rows, cols int, sc *scratch.Scratch) *BinaryMat {
	words := (rows + 63) / 64
	return &BinaryMat{Rows: rows, Cols: cols, Words: words, Bits: sc.Uint64(cols * words)}
}

// Col returns column c's bitset words.
func (m *BinaryMat) Col(c int) []uint64 { return m.Bits[c*m.Words : (c+1)*m.Words] }

// ColWeight returns the popcount of column c.
func (m *BinaryMat) ColWeight(c int) int {
	n := 0
	for _, w := range m.Col(c) {
		n += mbits.OnesCount64(w)
	}
	return n
}

// gramRowInto sets g[c] = popcount(col(a) AND col(c)) for every column
// c: column a's row of the integer Gram matrix AᵀA. Columns of one to
// four words, every stage-C shape up to 256 rows, run a loop unrolled to
// their word count; the counts are integers, so every shape's result is
// exact.
func (m *BinaryMat) gramRowInto(g []float64, a int) {
	ca := m.Col(a)
	g = g[:m.Cols]
	bs := m.Bits[:m.Cols*m.Words]
	switch len(ca) {
	case 1:
		a0 := ca[0]
		for c := range g {
			g[c] = float64(mbits.OnesCount64(a0 & bs[c]))
		}
	case 2:
		a0, a1 := ca[0], ca[1]
		for c := range g {
			cb := bs[2*c:][:2]
			g[c] = float64(mbits.OnesCount64(a0&cb[0]) + mbits.OnesCount64(a1&cb[1]))
		}
	case 3:
		a0, a1, a2 := ca[0], ca[1], ca[2]
		for c := range g {
			cb := bs[3*c:][:3]
			g[c] = float64(mbits.OnesCount64(a0&cb[0]) + mbits.OnesCount64(a1&cb[1]) +
				mbits.OnesCount64(a2&cb[2]))
		}
	case 4:
		a0, a1, a2, a3 := ca[0], ca[1], ca[2], ca[3]
		for c := range g {
			cb := bs[4*c:][:4]
			g[c] = float64(mbits.OnesCount64(a0&cb[0]) + mbits.OnesCount64(a1&cb[1]) +
				mbits.OnesCount64(a2&cb[2]) + mbits.OnesCount64(a3&cb[3]))
		}
	default:
		for c := range g {
			cb := bs[c*m.Words:][:len(ca)]
			n := 0
			for w, word := range ca {
				n += mbits.OnesCount64(word & cb[w])
			}
			g[c] = float64(n)
		}
	}
}

// dotY returns Σ_{r: col(c)[r]=1} y[r] — the column's correlation with
// y (the column is real 0/1, so no conjugation is involved), summed in
// ascending row order from +0.
func (m *BinaryMat) dotY(c int, y dsp.Vec) complex128 {
	var s complex128
	for w, word := range m.Col(c) {
		yw := y[w*64:]
		for word != 0 {
			s += yw[mbits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	return s
}

// atyInto sets aty[c] = dotY(c, y) for every column c, two columns at a
// time (dotY2), bit for bit dotY's.
func (m *BinaryMat) atyInto(aty, y dsp.Vec) {
	aty = aty[:m.Cols]
	c := 0
	for ; c+2 <= len(aty); c += 2 {
		aty[c], aty[c+1] = m.dotY2(c, y)
	}
	if c < len(aty) {
		aty[c] = m.dotY(c, y)
	}
}

// dotY2 returns dotY(c) and dotY(c+1) as two independent add chains
// interleaved over the set bits, so neither waits on the other's adds;
// each column still sums its rows in ascending order from +0, so both
// results are dotY's, bit for bit.
func (m *BinaryMat) dotY2(c int, y dsp.Vec) (s0, s1 complex128) {
	c0 := m.Col(c)
	c1 := m.Col(c + 1)[:len(c0)]
	for w, w0 := range c0 {
		w1 := c1[w]
		yw := y[w*64:]
		for w0 != 0 && w1 != 0 {
			s0 += yw[mbits.TrailingZeros64(w0)]
			s1 += yw[mbits.TrailingZeros64(w1)]
			w0 &= w0 - 1
			w1 &= w1 - 1
		}
		for ; w0 != 0; w0 &= w0 - 1 {
			s0 += yw[mbits.TrailingZeros64(w0)]
		}
		for ; w1 != 0; w1 &= w1 - 1 {
			s1 += yw[mbits.TrailingZeros64(w1)]
		}
	}
	return s0, s1
}

// skipBelow is 1 − 2u (u = 2⁻⁵³), exactly representable: bestAtom's
// prefilter factor.
const skipBelow = 1 - 0x1p-52

// bestAtom is OMPBits' atom selection: the candidate column most
// correlated with the residual, scored by |z_c|²/weight_c (the square of
// the normalized correlation |z_c|/√weight_c, so the same argmax up to
// rounding, without a hypot or a square root per candidate), the first
// of the largest scores above 0; columns in the support or of weight 0
// are not candidates. It returns −1 and 0 when no score is above 0.
//
// A candidate skips the division when q = |z_c|² ≤ fl(lim·w_c), where
// lim = fl(bestScore·(1 − 2u)) is formed once per change of bestScore,
// and lim = 0 while bestScore is below 2⁻¹⁰²¹ or above 2⁹⁹⁰. The skip is
// exact: a weight is a row count, below 2³¹, so both products are normal
// and finite (or lim = 0, when q ≤ 0 means q = 0); each rounds up by at
// most a factor 1 + u, so q ≤ bestScore·w·(1 − 2u)(1 + u)² =
// bestScore·w·(1 − 3u² − 2u³) < bestScore·w. Then q/w < bestScore, and
// since bestScore is a float and rounding is monotone, the rounded
// quotient is at most bestScore: it could not have won the strict
// comparison. A NaN q is never skipped, as the plain loop never selects
// it.
func bestAtom(zr, zi []float64, weight []int, inSupport []bool) (best int, bestScore float64) {
	best, lim := -1, 0.0
	for c, w := range weight {
		if inSupport[c] || w == 0 {
			continue
		}
		q, wf := zr[c]*zr[c]+zi[c]*zi[c], float64(w)
		if q <= lim*wf {
			continue
		}
		if s := q / wf; s > bestScore {
			bestScore, best = s, c
			lim = 0
			if s >= 0x1p-1021 && s <= 0x1p990 {
				lim = s * skipBelow
			}
		}
	}
	return best, bestScore
}

// OMPBits runs Orthogonal Matching Pursuit on y = A·z for a binary A,
// solving each growing least-squares subproblem through the normal
// equations G·x = Bᴴy with an incrementally-updated Cholesky factor of
// the integer Gram matrix G = BᴴB. Setup costs O(cols·words) popcounts
// for the column weights and one add per set bit of A for Aᴴy (two
// columns at a time, atyInto). With s atoms in the support, a pursuit
// iteration costs O(cols·words) popcounts for the new atom's Gram row
// (gramRowInto), O(cols·s) multiply-adds for the score refresh
// (contiguous passes over the Gram rows, see refreshScores), O(cols)
// for the scoring, one division per candidate, and O(s²) for the
// triangular solves. On the headline workload (about 100 to 200 rows,
// up to about 1,000 candidates) the pursuit stops at its reporting floor
// (OMPOptions.MinCoeffMag) one to two iterations past the number of
// tags. The score refresh is then the largest part, a quarter to a half
// of the pursuit in headline profiles; the Aᴴy setup, the new atoms
// (Gram rows and factor updates) and the scoring share the rest. The
// refresh is also the part that grows with the iteration count, as
// O(cols·s²) over a pursuit. No dense matrix is assembled, no
// Householder QR runs and no residual vector exists at all (its norm
// comes from ‖y‖² − 2Re(xᴴBᴴy) + xᴴGx).
//
// Options mean the same as for OMP. The recovered supports match the
// dense solver's; coefficients agree to least-squares accuracy (the
// normal equations square the conditioning, which is harmless at the
// well-conditioned sizes stage C produces — see TestOMPBitsMatchesDense).
func OMPBits(a *BinaryMat, y dsp.Vec, opts OMPOptions) (*Result, error) {
	if len(y) != a.Rows {
		return nil, fmt.Errorf("cs: OMPBits rhs length %d != rows %d", len(y), a.Rows)
	}
	if opts.MaxSparsity <= 0 {
		return nil, fmt.Errorf("cs: OMPBits MaxSparsity must be positive, got %d", opts.MaxSparsity)
	}
	tol := opts.ResidualTol
	if tol == 0 {
		tol = 1e-6
	}
	yNormSq := y.NormSq()
	if yNormSq == 0 {
		return &Result{Support: nil, Coeffs: nil, Residual: 0}, nil
	}
	yNorm := math.Sqrt(yNormSq)
	sc := opts.Scratch
	mark := sc.Mark()
	defer sc.Release(mark)

	supCap := opts.MaxSparsity
	if supCap > a.Rows {
		supCap = a.Rows
	}
	dim := supCap + 1 // +1 for the optional DC atom

	// Per-column constants: weight (squared norm) and correlation with y.
	weight := sc.Int(a.Cols)
	aty := dsp.Vec(sc.Complex(a.Cols))
	for c := 0; c < a.Cols; c++ {
		weight[c] = a.ColWeight(c)
	}
	a.atyInto(aty, y)

	// Support state. Column index −1 denotes the DC (all-ones) atom.
	support := sc.Int(dim)[:0]
	inSupport := sc.Bool(a.Cols)
	// gcols[j][c] = <col_c, B_j> for every candidate column c — the
	// cross-Gram row of support atom j, used by the score refresh. Each
	// row is drawn when its atom is tried, so a pursuit zeroes no rows
	// beyond the atoms it tries; the row list lives on the stack up to
	// 64 atoms.
	var gcolsBuf [64][]float64
	gcols := gcolsBuf[:0]
	// chol is the lower-triangular Cholesky factor of G, row-major;
	// bty and x are the projected RHS and the current solution.
	chol := sc.Float(dim * dim)
	bty := dsp.Vec(sc.Complex(dim))
	x := dsp.Vec(sc.Complex(dim))
	lrow := sc.Float(dim)

	// addAtom grows the factorization by column col (−1 = DC). It
	// returns false when the new atom is numerically dependent on the
	// current support.
	addAtom := func(col int) bool {
		s := len(support)
		// New Gram column against the existing support and the
		// candidate pool.
		g := sc.Float(a.Cols)
		var diag float64
		var rhs complex128
		if col < 0 {
			for c := 0; c < a.Cols; c++ {
				g[c] = float64(weight[c])
			}
			diag = float64(a.Rows)
			var sum complex128
			for _, v := range y {
				sum += v
			}
			rhs = sum
		} else {
			a.gramRowInto(g, col)
			diag = float64(weight[col])
			rhs = aty[col]
		}
		// lrow = inner products of the new atom with each support atom.
		for j, sj := range support {
			if sj < 0 {
				if col < 0 {
					lrow[j] = float64(a.Rows)
				} else {
					lrow[j] = float64(weight[col])
				}
			} else {
				lrow[j] = g[sj]
			}
		}
		// Forward-substitute to extend the Cholesky factor.
		for j := 0; j < s; j++ {
			v := lrow[j]
			for t := 0; t < j; t++ {
				v -= chol[j*dim+t] * lrow[t]
			}
			lrow[j] = v / chol[j*dim+j]
		}
		d := diag
		for t := 0; t < s; t++ {
			d -= lrow[t] * lrow[t]
		}
		if d <= 1e-9*math.Max(diag, 1) {
			return false
		}
		copy(chol[s*dim:s*dim+s], lrow[:s])
		chol[s*dim+s] = math.Sqrt(d)
		bty[s] = rhs
		support = append(support, col)
		gcols = append(gcols, g)
		return true
	}

	// solve refreshes x for the current support: L·Lᵀ·x = bty.
	solve := func() {
		s := len(support)
		for j := 0; j < s; j++ {
			v := bty[j]
			for t := 0; t < j; t++ {
				v -= complex(chol[j*dim+t], 0) * x[t]
			}
			x[j] = v / complex(chol[j*dim+j], 0)
		}
		for j := s - 1; j >= 0; j-- {
			v := x[j]
			for t := j + 1; t < s; t++ {
				v -= complex(chol[t*dim+j], 0) * x[t]
			}
			x[j] = v / complex(chol[j*dim+j], 0)
		}
	}

	// resNormSq computes ‖y − Bx‖² from the cached inner products.
	resNormSq := func() float64 {
		s := len(support)
		v := yNormSq
		for j := 0; j < s; j++ {
			v -= 2 * (real(x[j])*real(bty[j]) + imag(x[j])*imag(bty[j]))
		}
		// xᴴGx via G_jl: G rows are recoverable from gcols/lrow terms;
		// use the factor instead: xᴴGx = ‖Lᵀx‖².
		for j := 0; j < s; j++ {
			var t complex128
			for l := j; l < s; l++ {
				t += complex(chol[l*dim+j], 0) * x[l]
			}
			v += real(t)*real(t) + imag(t)*imag(t)
		}
		if v < 0 {
			v = 0
		}
		return v
	}

	dcAtoms := 0
	if opts.DCAtom {
		if addAtom(-1) {
			dcAtoms = 1
			solve()
		}
	}

	// z_c = aty_c − Σ_j gcols[j][c]·x_j, the residual's correlation
	// with every candidate column, split into real and imaginary parts.
	zr := sc.Float(a.Cols)
	zi := sc.Float(a.Cols)

	// The reporting floor: a candidate whose one-atom coefficient
	// |z_c|/w_c is under MinCoeffMag/4 scores below w_c·floorSq.
	floorSq := opts.MinCoeffMag * opts.MinCoeffMag / 16

	iters := 0
	for len(support)-dcAtoms < opts.MaxSparsity && len(support) < a.Rows {
		iters++
		refreshScores(zr, zi, aty, gcols, x[:len(support)])
		best, bestScore := bestAtom(zr, zi, weight, inSupport)
		if best < 0 || bestScore < 1e-24 { // |z|/√w < 1e-12
			break // nothing left to explain
		}
		if bestScore < float64(weight[best])*floorSq {
			break // the best atom left would fit noise below the floor
		}
		if !addAtom(best) {
			// Numerically dependent atom (e.g. two candidate ids with
			// identical patterns): drop it and stop — more atoms
			// cannot help.
			break
		}
		inSupport[best] = true
		solve()
		if math.Sqrt(resNormSq()) <= tol*yNorm {
			break
		}
	}

	res := &Result{Residual: math.Sqrt(resNormSq()), Iterations: iters}
	// Prune tiny coefficients, then re-sort the support.
	for j, col := range support {
		if col < 0 {
			continue // the DC coefficient is never reported
		}
		if cmplx.Abs(x[j]) >= opts.MinCoeffMag {
			res.Support = append(res.Support, col)
			res.Coeffs = append(res.Coeffs, x[j])
		}
	}
	sortSupport(res)

	if res.Residual > tol*yNorm && len(support)-dcAtoms >= opts.MaxSparsity {
		return res, ErrNoConvergence
	}
	return res, nil
}

// refreshScores sets z = aty − Σ_j gcols[j]·x_j over every candidate
// column, as real and imaginary parts zr, zi; gcols[j] is the cross-Gram
// row of support atom j, len(zr) floats long. The support is walked
// outside in blocks of up to four atoms and the candidates inside, so
// every pass reads its Gram rows contiguously. Each candidate still
// subtracts its atoms one at a time in support order, so the sums are
// the ones a per-candidate loop over the support computes, bit for bit
// (a real Gram entry g times x is g·re(x), g·im(x); the complex product
// differs from that only in the sign of an exact zero).
func refreshScores(zr, zi []float64, aty dsp.Vec, gcols [][]float64, x dsp.Vec) {
	n := len(zr)
	zi = zi[:n]
	aty = aty[:n]
	for c, v := range aty {
		zr[c], zi[c] = real(v), imag(v)
	}
	j := 0
	for ; j+4 <= len(x); j += 4 {
		g0 := gcols[j][:n]
		g1 := gcols[j+1][:n]
		g2 := gcols[j+2][:n]
		g3 := gcols[j+3][:n]
		x0r, x0i := real(x[j]), imag(x[j])
		x1r, x1i := real(x[j+1]), imag(x[j+1])
		x2r, x2i := real(x[j+2]), imag(x[j+2])
		x3r, x3i := real(x[j+3]), imag(x[j+3])
		for c := range zr {
			r, i := zr[c], zi[c]
			r -= g0[c] * x0r
			i -= g0[c] * x0i
			r -= g1[c] * x1r
			i -= g1[c] * x1i
			r -= g2[c] * x2r
			i -= g2[c] * x2i
			r -= g3[c] * x3r
			i -= g3[c] * x3i
			zr[c], zi[c] = r, i
		}
	}
	for ; j < len(x); j++ {
		g0 := gcols[j][:n]
		x0r, x0i := real(x[j]), imag(x[j])
		for c := range zr {
			zr[c] -= g0[c] * x0r
			zi[c] -= g0[c] * x0i
		}
	}
}

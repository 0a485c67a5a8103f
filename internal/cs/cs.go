// Package cs implements the sparse-recovery solvers behind stage C of
// Buzz's identification protocol (§5C).
//
// The problem: recover a K-sparse complex vector z (non-zero exactly at
// the temporary ids of tags with data, with value equal to each tag's
// channel tap) from M ≈ K·log(a) noisy linear measurements y = A′z + n,
// where A′ is the binary pattern matrix whose columns the reader can
// regenerate from candidate ids.
//
// The paper solves the L1 program of Eq. 6 with a Matlab interior-point
// solver (CVX). That machinery is neither available in Go's stdlib nor
// necessary at these problem sizes, so this package solves it greedily
// with Orthogonal Matching Pursuit: pick the column best correlated with
// the residual and re-solve least squares on the growing support.
// Deterministic, fast, and exact for the sparsity levels stage B leaves
// behind. Identification runs OMPBits, the binary-column form
// (binary.go); OMP over a dense matrix is its test reference.
package cs

import (
	"errors"
	"fmt"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/scratch"
)

// Result is the output of a sparse-recovery solve.
type Result struct {
	// Support lists the recovered non-zero column indices, sorted
	// ascending.
	Support []int
	// Coeffs holds the recovered complex coefficient for each entry of
	// Support (for Buzz these estimate the tags' channel taps).
	Coeffs dsp.Vec
	// Residual is ‖y − A·ẑ‖₂ at the solution.
	Residual float64
	// Iterations is the number of solver iterations consumed.
	Iterations int
}

// ErrNoConvergence is returned when a pursuit exhausts its support
// budget with the residual still above tolerance. A pursuit that stops
// at its reporting floor (OMPOptions.MinCoeffMag) returns no error.
var ErrNoConvergence = errors.New("cs: solver did not reach the residual tolerance")

// OMPOptions tunes Orthogonal Matching Pursuit.
type OMPOptions struct {
	// MaxSparsity caps the support size. For Buzz this is the estimated
	// K̂ plus slack for estimation error.
	MaxSparsity int
	// ResidualTol stops the pursuit once ‖residual‖ ≤ ResidualTol·‖y‖.
	// Zero defaults to 1e-6 (effectively "explain everything" in the
	// noiseless case); noisy callers should pass their noise floor.
	ResidualTol float64
	// MinCoeffMag drops recovered coefficients with magnitude below this
	// threshold during the final pruning pass — spurious atoms picked up
	// from noise have tiny weights. It also sets the pursuit's floor:
	// the pursuit stops, without ErrNoConvergence, once the best
	// remaining candidate's one-atom coefficient |z_c|/‖a_c‖² (z_c its
	// correlation with the residual) is under MinCoeffMag/4. Such an
	// atom would fit noise: the prune drops it, but the final fit would
	// already have carried that noise into the other coefficients. With
	// the DC atom, a coefficient exactly at MinCoeffMag scores about
	// MinCoeffMag/2 (a binary column's centered part is half its ones),
	// so the quarter leaves a factor of two. Zero disables both.
	MinCoeffMag float64
	// DCAtom adds a free all-ones regressor to every least-squares
	// solve. Binary 0/1 dictionaries share a strong common component
	// (each column ≈ ½·1 plus a centered part) that inflates every
	// correlation score equally and misleads atom selection; absorbing
	// it into an intercept makes the pursuit see only the informative
	// centered parts. The DC coefficient is never reported.
	DCAtom bool
	// Scratch, when non-nil, supplies the pursuit's working buffers —
	// residuals, correlation scores, the per-iteration support matrices
	// and their QR workspaces — from a per-worker arena instead of the
	// heap. The arena is released before OMP returns; only the reported
	// Result is heap-allocated. Numerics are identical either way.
	Scratch *scratch.Scratch
}

// OMP runs Orthogonal Matching Pursuit on y = A·z. Columns of A need not
// be normalized; correlation scores divide by column norms. A zero
// column can never be selected.
func OMP(a *dsp.Mat, y dsp.Vec, opts OMPOptions) (*Result, error) {
	if len(y) != a.Rows {
		return nil, fmt.Errorf("cs: OMP rhs length %d != rows %d", len(y), a.Rows)
	}
	if opts.MaxSparsity <= 0 {
		return nil, fmt.Errorf("cs: OMP MaxSparsity must be positive, got %d", opts.MaxSparsity)
	}
	tol := opts.ResidualTol
	if tol == 0 {
		tol = 1e-6
	}
	yNorm := y.Norm()
	if yNorm == 0 {
		return &Result{Support: nil, Coeffs: nil, Residual: 0}, nil
	}
	sc := opts.Scratch
	mark := sc.Mark()
	defer sc.Release(mark)

	// Precompute column norms for score normalization.
	colNorm := sc.Float(a.Cols)
	for c := 0; c < a.Cols; c++ {
		colNorm[c] = a.ColNorm(c)
	}

	// solveOn runs least squares for the current support, with the DC
	// regressor prepended when requested, and returns the coefficients
	// for the real atoms plus the residual. Its outputs live in the
	// arena until OMP's own mark is released.
	solveOn := func(support []int) (dsp.Vec, dsp.Vec, error) {
		cols := len(support)
		dc := 0
		if opts.DCAtom {
			cols++
			dc = 1
		}
		sub := dsp.Mat{Rows: a.Rows, Cols: cols, Data: sc.Complex(a.Rows * cols)}
		for r := 0; r < a.Rows; r++ {
			row := sub.Data[r*cols : (r+1)*cols]
			if opts.DCAtom {
				row[0] = 1
			}
			for j, c := range support {
				row[j+dc] = a.At(r, c)
			}
		}
		x, err := dsp.LeastSquaresScratch(&sub, y, sc)
		if err != nil {
			return nil, nil, err
		}
		res := dsp.ResidualInto(dsp.Vec(sc.Complex(a.Rows)), &sub, x, y)
		return x[dc:], res, nil
	}

	// The residual and the accepted coefficients survive across pursuit
	// iterations, so they live in dedicated buffers; each iteration's
	// solve workspace is released as soon as its outputs are copied out,
	// keeping the arena's high-water mark linear in the support size.
	residual := dsp.Vec(sc.Complex(a.Rows))
	copy(residual, y)
	supCap := opts.MaxSparsity
	if supCap > a.Rows {
		supCap = a.Rows
	}
	coeffBuf := dsp.Vec(sc.Complex(supCap))
	if opts.DCAtom {
		// Start from the intercept-only fit so the first selection
		// already scores against the centered observation.
		dcMark := sc.Mark()
		if _, r0, err := solveOn(nil); err == nil {
			copy(residual, r0)
		}
		sc.Release(dcMark)
	}
	inSupport := sc.Bool(a.Cols)
	scores := dsp.Vec(sc.Complex(a.Cols))
	support := sc.Int(supCap)[:0]
	var coeffs dsp.Vec
	iters := 0

	for len(support) < opts.MaxSparsity && len(support) < a.Rows {
		iters++
		// Atom selection: column most correlated with the residual.
		a.ConjTransposeMulVecInto(scores, residual)
		best, bestScore := -1, 0.0
		for c := 0; c < a.Cols; c++ {
			if inSupport[c] || colNorm[c] == 0 {
				continue
			}
			s := cmplx.Abs(scores[c]) / colNorm[c]
			if s > bestScore {
				bestScore = s
				best = c
			}
		}
		if best < 0 || bestScore < 1e-12 {
			break // nothing left to explain
		}
		if bestScore < opts.MinCoeffMag/4*colNorm[best] {
			break // the best atom left would fit noise below the floor
		}
		inSupport[best] = true
		support = append(support, best)

		// Re-solve least squares on the support and refresh the residual.
		iterMark := sc.Mark()
		x, r, err := solveOn(support)
		if err != nil {
			// The new atom made the support rank deficient (e.g. two
			// candidate ids with identical patterns). Drop it and stop:
			// more atoms cannot help.
			sc.Release(iterMark)
			inSupport[best] = false
			support = support[:len(support)-1]
			break
		}
		coeffs = coeffBuf[:len(x)]
		copy(coeffs, x)
		copy(residual, r)
		sc.Release(iterMark)
		if residual.Norm() <= tol*yNorm {
			break
		}
	}

	res := &Result{Residual: residual.Norm(), Iterations: iters}
	// Prune tiny coefficients, then re-sort the support.
	for i, c := range support {
		if cmplx.Abs(coeffs[i]) >= opts.MinCoeffMag {
			res.Support = append(res.Support, c)
			res.Coeffs = append(res.Coeffs, coeffs[i])
		}
	}
	sortSupport(res)

	if res.Residual > tol*yNorm && len(support) >= opts.MaxSparsity {
		return res, ErrNoConvergence
	}
	return res, nil
}

func sortSupport(r *Result) {
	// Insertion sort by support index, moving coefficients along; the
	// supports here are tens of entries.
	for i := 1; i < len(r.Support); i++ {
		s, c := r.Support[i], r.Coeffs[i]
		j := i - 1
		for j >= 0 && r.Support[j] > s {
			r.Support[j+1] = r.Support[j]
			r.Coeffs[j+1] = r.Coeffs[j]
			j--
		}
		r.Support[j+1] = s
		r.Coeffs[j+1] = c
	}
}

package dsp

// The allocating forms of the Into kernels, kept as the tests'
// references: no production code calls them.

// MulVec returns m·x.
func (m *Mat) MulVec(x Vec) Vec {
	return m.MulVecInto(make(Vec, m.Rows), x)
}

// ConjTransposeMulVec returns mᴴ·x (conjugate transpose times x), the
// correlation of every column with x.
func (m *Mat) ConjTransposeMulVec(x Vec) Vec {
	return m.ConjTransposeMulVecInto(make(Vec, m.Cols), x)
}

// LeastSquares is LeastSquaresScratch on the heap.
func LeastSquares(a *Mat, y Vec) (Vec, error) {
	return LeastSquaresScratch(a, y, nil)
}

// Residual returns y − A·x, the unexplained part of the observation.
func Residual(a *Mat, x, y Vec) Vec {
	return ResidualInto(make(Vec, a.Rows), a, x, y)
}

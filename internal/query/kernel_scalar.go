//go:build floodscalar

package query

// defaultScalarKernel selects the kernel a freshly Reset scanner uses. This
// build was tagged floodscalar, so every scanner defaults to the portable
// selection-vector kernel (the equivalence tests override it per scanner).
const defaultScalarKernel = true

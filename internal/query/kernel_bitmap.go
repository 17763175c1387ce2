//go:build !floodscalar

package query

// defaultScalarKernel selects the kernel a freshly Reset scanner uses. The
// default build runs the word-packed bitmap kernel; building with
// -tags floodscalar pins every scanner to the portable selection-vector
// fallback (the equivalence tests override it per scanner either way).
const defaultScalarKernel = false

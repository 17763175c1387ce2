package query

// SetScalarKernel selects the portable selection-vector kernel (true) or the
// word-packed bitmap kernel (false) for this scanner's lifetime until the
// next Reset. Both kernels deliver identical rows, stats, and LIMIT
// prefixes; the scalar kernel never consults bitmap indexes, which makes the
// pair the oracle for the cross-kernel equivalence tests.
func (s *Scanner) SetScalarKernel(on bool) { s.scalar = on }

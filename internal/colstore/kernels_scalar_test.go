//go:build floodscalar

package colstore

// packedImpls is empty: the oracle build compiles no packed compare.
var packedImpls []compareImpl

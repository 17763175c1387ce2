//go:build !floodscalar

package colstore

//go:generate go run gen_kernels.go

// unpackBlock decodes a full block of w-bit deltas through the generated
// straight-line kernels (kernels_gen.go), one call per 64 values. It reports
// false, having written nothing, for the widths that have no kernel.
func unpackBlock(words []uint64, out []int64, minV int64, w uint) bool {
	if w-1 >= maxKernelWidth { // w == 0 wraps to the top of the range
		return false
	}
	unpack64(w, words, out, minV)
	unpack64(w, words[w:], out[64:], minV)
	return true
}

// compareBlock refines sel with delta+off <= span over a full block of packed
// w-bit deltas through the generated compare kernels, one call per selection
// word that still has a survivor. It reports false, leaving sel alone, for
// the widths that have no kernel.
func compareBlock(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool {
	if w-1 >= maxKernelWidth {
		return false
	}
	for wi, s := range sel {
		if s != 0 {
			sel[wi] = cmp64(w, words[uint(wi)*w:], s, off, span)
		}
	}
	return true
}

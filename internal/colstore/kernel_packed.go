//go:build !floodscalar

package colstore

//go:generate go run gen_kernels.go

// unpackWord decodes the 64 w-bit deltas (0 < w <= 64) packed in words[:w]
// into out[:64], adding minV: through the generated straight-line kernel for
// w (kernels_gen.go) where there is one, the generic bit loop otherwise.
func unpackWord(words []uint64, out []int64, minV int64, w uint) {
	if w > maxKernelWidth {
		unpackGeneric(words, out[:64], minV, w)
		return
	}
	unpack64(w, words, out, minV)
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

//go:build floodscalar

package colstore

// The floodscalar build is the oracle the packed kernels are checked against,
// so it contains none of them: every block decodes through the generic bit
// loop, every block encodes through it, and every compare runs over decoded
// values.

// KernelName names the packed compare this process runs; see the packed
// build's.
func KernelName() string { return "scalar" }

func unpackWord(words []uint64, out []int64, minV int64, w uint) {
	unpackGeneric(words, out[:64], minV, w)
}

func packWord(in []int64, words []uint64, minV int64, w uint) {
	packGeneric(in[:64], words, minV, w)
}

func compareBlock(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool { return false }

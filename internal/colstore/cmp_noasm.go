//go:build !floodscalar && (!amd64 || purego)

package colstore

// Without the assembly — another architecture, or -tags purego — the
// generated kernels are the only packed compare.

const useAVX2 = false

func compareVector(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool { return false }

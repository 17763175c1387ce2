//go:build !floodscalar

package colstore

//go:generate go run gen_kernels.go

// KernelName names the packed compare this process runs: "avx2" when the
// vector routine was selected at start-up, "generated" when the generated Go
// kernels are the only packed path (another architecture, an x86 without
// AVX2, -tags purego), "scalar" under -tags floodscalar.
func KernelName() string {
	if useAVX2 {
		return "avx2"
	}
	return "generated"
}

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

// packWord packs the 64 w-bit deltas (0 < w <= 64) of in[:64] from minV into
// words[:w]: through the generated straight-line kernel for w where there is
// one, the generic bit loop otherwise.
func packWord(in []int64, words []uint64, minV int64, w uint) {
	if w > maxKernelWidth {
		packGeneric(in[:64], words, minV, w)
		return
	}
	pack64(w, in, words, minV)
}

// compareBlock refines sel with delta+off <= span over a full block of packed
// w-bit deltas, words[:2*w]: through the vector routine where it applies, the
// generated compare kernels otherwise. It reports false, leaving sel alone,
// for the widths that have neither.
func compareBlock(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool {
	return compareVector(words, sel, w, off, span) || compareGenerated(words, sel, w, off, span)
}

// compareGenerated is compareBlock through the generated kernels, one call
// per selection word that still has a survivor.
func compareGenerated(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool {
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

// maxVectorWidth is the widest delta the vector routine unpacks, and
// vectorOverread the bytes past a block's last word its last load may touch.
const (
	maxVectorWidth = 25
	vectorOverread = 16
)

// boundsFit is laneBounds' verdict on a predicate.
type boundsFit uint8

const (
	boundsSome  boundsFit = iota // the deltas lo..lo+rng pass
	boundsNone                   // no delta passes
	boundsSplit                  // two separate runs pass: not one interval
)

// laneBounds rewrites the 64-bit wrapping test delta+off <= span, over the
// w-bit deltas 0..mask(w) with w < 32, as the 32-bit test lo <= delta <=
// lo+rng, so a vector lane never needs more than a dword. The deltas that
// pass are those of the cyclic run first..first+span (mod 2^64) that fall in
// 0..mask(w): nothing, one interval, or — only when the run wraps past zero
// and back into the block, which no predicate with Min <= Max over int64
// values produces — two, which the caller leaves to the 64-bit kernels.
func laneBounds(w uint, off, span uint64) (lo, rng uint32, fit boundsFit) {
	m := mask(w)
	first := -off
	last := first + span
	switch {
	case last >= first: // the run does not wrap
		if first > m {
			return 0, 0, boundsNone
		}
		return uint32(first), uint32(min(last, m) - first), boundsSome
	case first > m: // it wraps, and only its tail 0..last reaches the block
		return 0, uint32(min(last, m)), boundsSome
	case last+1 == first: // it wraps all the way round: every delta passes
		return 0, uint32(m), boundsSome
	}
	return 0, 0, boundsSplit
}

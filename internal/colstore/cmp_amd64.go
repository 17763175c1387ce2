//go:build !floodscalar && !purego

package colstore

// The vector compare: one AVX2 routine (cmp_amd64.s) under compareBlock,
// used when the CPU and the OS support it. Eight w-bit deltas are exactly w
// bytes, so a block's 16 groups of eight start at byte offsets g*w whatever
// the width, and one shuffle plus one per-lane shift unpacks a group into
// eight dword lanes.

// useAVX2 is decided once, from CPUID, at start-up.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func cmpBlockAVX2(words *uint64, tab *[64]byte, w uint64, sel *BlockBitmap, lo, rng, mask uint32)

// laneTables holds, per width, what cmpBlockAVX2 needs to unpack a group: 32
// shuffle bytes (lane k's four bytes start at byte (k*w)>>3 of the group;
// lanes 4..7 are loaded w>>1 bytes in, and a shuffle indexes within its own
// 16-byte half) and eight dword shift counts (k*w)&7. A lane's delta ends at
// most 7+25 bits into its four bytes, which is why maxVectorWidth is 25.
var laneTables = func() (t [maxVectorWidth + 1][64]byte) {
	for w := 1; w <= maxVectorWidth; w++ {
		for k := 0; k < 8; k++ {
			first := k * w >> 3
			if k >= 4 {
				first -= w >> 1
			}
			for j := 0; j < 4; j++ {
				t[w][4*k+j] = byte(first + j)
			}
			t[w][32+4*k] = byte(k * w & 7)
		}
	}
	return t
}()

// compareVector is compareBlock through the AVX2 routine. It reports false,
// leaving sel alone, when the routine does not apply: no AVX2, a width
// outside 1..maxVectorWidth, fewer than vectorOverread bytes of words after
// the block, or a predicate laneBounds cannot put in one 32-bit interval.
func compareVector(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool {
	if !useAVX2 || w-1 >= maxVectorWidth || uint(len(words)) < 2*w+vectorOverread/8 {
		return false
	}
	lo, rng, fit := laneBounds(w, off, span)
	switch fit {
	case boundsSplit:
		return false
	case boundsNone:
		*sel = BlockBitmap{}
	default:
		cmpBlockAVX2(&words[0], &laneTables[w], uint64(w), sel, lo, rng, uint32(mask(w)))
	}
	return true
}

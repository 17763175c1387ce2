//go:build !floodscalar

package colstore

import "testing"

// packedImpls are the packed compares of this build. compareVector refuses
// every block where the vector routine is not compiled in or not supported.
var packedImpls = []compareImpl{{"vector", compareVector}, {"generated", compareGenerated}}

// TestLaneBoundsExhaustive checks the 32-bit bounds rewrite against the
// 64-bit predicate it replaces, delta by delta, for every width up to 8 and
// every first-passing-delta and span near the places the cyclic run can
// start, end or wrap: around zero, around the block's last delta, around
// 2^64, and far from all three.
func TestLaneBoundsExhaustive(t *testing.T) {
	for w := uint(1); w <= 8; w++ {
		m := mask(w)
		var firsts, spans []uint64
		for d := uint64(0); d <= m+3; d++ {
			firsts = append(firsts, d, -d)
			spans = append(spans, d, ^uint64(0)-d, 1<<63+d, 1<<63-d)
		}
		firsts = append(firsts, 1<<63, 1<<63-1, 1<<32, 1<<32-1, ^uint64(0)-1<<40)
		spans = append(spans, 1<<32, 1<<32-1)
		for _, first := range firsts {
			for _, span := range spans {
				off := -first
				passes := func(d uint64) bool { return d+off <= span }
				lo, rng, fit := laneBounds(w, off, span)
				switch fit {
				case boundsSome:
					if uint64(lo)+uint64(rng) > m {
						t.Fatalf("w=%d first=%#x span=%#x: interval %d+%d leaves the block", w, first, span, lo, rng)
					}
					for d := uint64(0); d <= m; d++ {
						if got := uint32(d)-lo <= rng; got != passes(d) {
							t.Fatalf("w=%d first=%#x span=%#x delta %d: lo=%d rng=%d says %v, predicate %v", w, first, span, d, lo, rng, got, passes(d))
						}
					}
				case boundsNone:
					for d := uint64(0); d <= m; d++ {
						if passes(d) {
							t.Fatalf("w=%d first=%#x span=%#x: none, but delta %d passes", w, first, span, d)
						}
					}
				case boundsSplit:
					// Refusing is right only when no single interval would do:
					// both ends of the block pass and something between does not.
					gap := false
					for d := uint64(0); d <= m; d++ {
						gap = gap || !passes(d)
					}
					if !passes(0) || !passes(m) || !gap {
						t.Fatalf("w=%d first=%#x span=%#x: refused a predicate one interval expresses", w, first, span)
					}
				}
			}
		}
	}
}

// Package zcurve implements the Morton (Z-order) encoding shared by the
// Z-order index and UB-tree baselines (Appendix A): d-dimensional points map
// to 64-bit codes by interleaving ⌊64/d⌋ bits per dimension, with the most
// selective dimension contributing the code's least significant bit. The
// package also implements the BIGMIN computation (Tropf & Herzog) the
// UB-tree uses to skip ahead to the next code inside a query rectangle.
package zcurve

import "math/bits"

// Encoder maps points to Z-order codes for a fixed dimensionality and
// per-dimension domain.
type Encoder struct {
	d       int
	bitsPer uint
	mins    []int64
	shifts  []uint // right shift applied to (v - min) so it fits bitsPer bits
	// order[i] is the dimension occupying interleave slot i; slot 0 owns
	// the code's LSB (most selective dimension first).
	order []int
	slot  []int // slot[dim] = interleave slot of dimension dim
}

// NewEncoder builds an encoder for points whose dimension dim spans
// [mins[dim], maxs[dim]]. order lists dimensions from most to least
// selective; it must be a permutation of [0, len(mins)).
func NewEncoder(mins, maxs []int64, order []int) *Encoder {
	d := len(mins)
	e := &Encoder{
		d:       d,
		bitsPer: uint(64 / d),
		mins:    append([]int64(nil), mins...),
		shifts:  make([]uint, d),
		order:   append([]int(nil), order...),
		slot:    make([]int, d),
	}
	for s, dim := range e.order {
		e.slot[dim] = s
	}
	for dim := 0; dim < d; dim++ {
		span := uint64(maxs[dim]) - uint64(mins[dim])
		need := uint(bits.Len64(span))
		if need > e.bitsPer {
			e.shifts[dim] = need - e.bitsPer
		}
	}
	return e
}

// Part quantizes one coordinate to its bitsPer-bit code contribution.
func (e *Encoder) Part(dim int, v int64) uint64 {
	return (uint64(v) - uint64(e.mins[dim])) >> e.shifts[dim]
}

// Encode maps a point (one value per dimension) to its Z-order code.
func (e *Encoder) Encode(point []int64) uint64 {
	var z uint64
	for dim, v := range point {
		part := e.Part(dim, v)
		s := uint(e.slot[dim])
		for b := uint(0); b < e.bitsPer; b++ {
			z |= ((part >> b) & 1) << (b*uint(e.d) + s)
		}
	}
	return z
}

// EncodeParts maps already-quantized parts (indexed by dimension) to a code.
func (e *Encoder) EncodeParts(parts []uint64) uint64 {
	var z uint64
	for dim, part := range parts {
		s := uint(e.slot[dim])
		for b := uint(0); b < e.bitsPer; b++ {
			z |= ((part >> b) & 1) << (b*uint(e.d) + s)
		}
	}
	return z
}

// DecodePart extracts dimension dim's quantized part from a code.
func (e *Encoder) DecodePart(z uint64, dim int) uint64 {
	s := uint(e.slot[dim])
	var part uint64
	for b := uint(0); b < e.bitsPer; b++ {
		part |= ((z >> (b*uint(e.d) + s)) & 1) << b
	}
	return part
}

// totalBits is the number of meaningful bits in a code.
func (e *Encoder) totalBits() uint { return e.bitsPer * uint(e.d) }

// InRect reports whether code z lies inside the rectangle whose corners have
// codes derived from the quantized bounds loParts/hiParts (per dimension,
// inclusive).
func (e *Encoder) InRect(z uint64, loParts, hiParts []uint64) bool {
	for dim := 0; dim < e.d; dim++ {
		p := e.DecodePart(z, dim)
		if p < loParts[dim] || p > hiParts[dim] {
			return false
		}
	}
	return true
}

// BigMin returns the smallest Z-order code strictly greater than z that lies
// within the rectangle [lo, hi] (codes of the rectangle's corners), and ok =
// false when no such code exists. This is the UB-tree "skip ahead" primitive
// (Appendix A).
func (e *Encoder) BigMin(z, lo, hi uint64) (bigmin uint64, ok bool) {
	// Work on the successor so "strictly greater" reduces to ">=".
	if z == ^uint64(0) {
		return 0, false
	}
	z++
	if tb := e.totalBits(); tb < 64 && z >= uint64(1)<<tb {
		// The successor overflows the code space: nothing left.
		return 0, false
	}
	var haveBig bool
	minv, maxv := lo, hi
	total := int(e.totalBits())
	for p := total - 1; p >= 0; p-- {
		bit := uint64(1) << uint(p)
		zb := z & bit
		lb := minv & bit
		hb := maxv & bit
		switch {
		case zb == 0 && lb == 0 && hb == 0:
			// continue
		case zb == 0 && lb == 0 && hb != 0:
			bigmin, haveBig = e.loadOnes(minv, uint(p)), true
			maxv = e.loadZeros(maxv, uint(p))
		case zb == 0 && lb != 0 && hb != 0:
			return minv, true
		case zb != 0 && lb == 0 && hb == 0:
			return bigmin, haveBig
		case zb != 0 && lb == 0 && hb != 0:
			minv = e.loadOnes(minv, uint(p))
		case zb != 0 && lb != 0 && hb != 0:
			// continue
		default:
			// lb != 0 && hb == 0 cannot happen for a valid rectangle.
			return bigmin, haveBig
		}
	}
	// z itself lies within [minv, maxv] projections: it is in the rect.
	return z, true
}

// loadOnes sets bit p to 1 and zeroes all lower bits of the same dimension
// ("10000..." load in the BIGMIN literature).
func (e *Encoder) loadOnes(code uint64, p uint) uint64 {
	return (code | (uint64(1) << p)) &^ e.lowerSameDimMask(p)
}

// loadZeros sets bit p to 0 and sets all lower bits of the same dimension
// ("01111..." load).
func (e *Encoder) loadZeros(code uint64, p uint) uint64 {
	return (code &^ (uint64(1) << p)) | e.lowerSameDimMask(p)
}

// lowerSameDimMask returns a mask of code bits strictly below p that belong
// to the same dimension as bit p.
func (e *Encoder) lowerSameDimMask(p uint) uint64 {
	var m uint64
	d := uint(e.d)
	for q := p % d; q < p; q += d {
		m |= uint64(1) << q
	}
	return m
}

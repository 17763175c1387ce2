// Package zbase holds the construction logic shared by the Z-order index and
// UB-tree baselines: quantize points with a zcurve.Encoder, sort the table by
// Z-order code, and group contiguous chunks into pages (Appendix A).
package zbase

import (
	"fmt"
	"sort"

	"flood/internal/colstore"
	"flood/internal/query"
	"flood/internal/zcurve"
)

// defaultPageSize matches the dense cache-aligned pages of §7.2.
const defaultPageSize = 1024

// Base is a Z-order-sorted table with page metadata.
type Base struct {
	T          *colstore.Table
	Enc        *zcurve.Encoder
	Dims       []int    // indexed dimensions, most selective first
	Mins, Maxs []int64  // build-time domain per local dimension
	PageMinZ   []uint64 // per page: Z-code of its first row
	PageRows   []int32  // per page: starting row; len = numPages+1
}

// Build quantizes and Z-sorts t over the given dimensions. dims lists the
// indexed dimensions from most to least selective (the most selective one
// owns the code's least significant bit).
func Build(t *colstore.Table, dims []int, pageSize int) (*Base, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("zbase: no dimensions to index")
	}
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	n := t.NumRows()
	mins := make([]int64, len(dims))
	maxs := make([]int64, len(dims))
	raws := make([][]int64, len(dims))
	for i, d := range dims {
		raws[i] = t.Raw(d)
		if n > 0 {
			mins[i], maxs[i] = raws[i][0], raws[i][0]
			for _, v := range raws[i][1:] {
				if v < mins[i] {
					mins[i] = v
				}
				if v > maxs[i] {
					maxs[i] = v
				}
			}
		}
	}
	// The encoder works in "local" dimension space 0..len(dims)-1; slot
	// order is identity because dims is already selectivity-ordered.
	order := make([]int, len(dims))
	for i := range order {
		order[i] = i
	}
	enc := zcurve.NewEncoder(mins, maxs, order)
	codes := make([]uint64, n)
	point := make([]int64, len(dims))
	for r := 0; r < n; r++ {
		for i := range dims {
			point[i] = raws[i][r]
		}
		codes[r] = enc.Encode(point)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return codes[perm[a]] < codes[perm[b]] })

	b := &Base{T: t.Reorder(perm), Enc: enc, Dims: append([]int(nil), dims...), Mins: mins, Maxs: maxs}
	for start := 0; start < n; start += pageSize {
		b.PageRows = append(b.PageRows, int32(start))
		b.PageMinZ = append(b.PageMinZ, codes[perm[start]])
	}
	b.PageRows = append(b.PageRows, int32(n))
	return b, nil
}

// NumPages returns the number of pages.
func (b *Base) NumPages() int { return len(b.PageMinZ) }

// PageRange returns the physical row range [start, end) of page p.
func (b *Base) PageRange(p int) (int, int) {
	return int(b.PageRows[p]), int(b.PageRows[p+1])
}

// QuantizedRect converts a query into quantized per-dimension part bounds
// (in local dimension space) and reports whether the rectangle intersects
// the data domain at all.
func (b *Base) QuantizedRect(q query.Query) (lo, hi []uint64, nonEmpty bool) {
	lo = make([]uint64, len(b.Dims))
	hi = make([]uint64, len(b.Dims))
	for i, d := range b.Dims {
		r := q.Ranges[d]
		lo[i] = b.Enc.Part(i, b.Mins[i])
		hi[i] = b.Enc.Part(i, b.Maxs[i])
		if !r.Present {
			continue
		}
		// The rectangle is empty when the filter misses the domain
		// entirely; otherwise clamp endpoints into the domain before
		// quantizing (quantization is only defined inside it).
		if r.Max < b.Mins[i] || r.Min > b.Maxs[i] {
			return lo, hi, false
		}
		if r.Min > b.Mins[i] {
			lo[i] = b.Enc.Part(i, r.Min)
		}
		if r.Max < b.Maxs[i] {
			hi[i] = b.Enc.Part(i, r.Max)
		}
	}
	return lo, hi, true
}

// PageFor returns the index of the last page whose min code is <= z — the
// last page that can hold code z, where a walk up to z ends — or 0 when z
// precedes everything.
func (b *Base) PageFor(z uint64) int {
	return max(sort.Search(len(b.PageMinZ), func(i int) bool { return b.PageMinZ[i] > z })-1, 0)
}

// FirstPageFor returns the index of the first page that can hold code z,
// where a walk from z starts: the last page whose min code is strictly
// below z. Rows sharing one code can straddle a page boundary, so a page
// whose min is z itself may be preceded by pages that end in — or consist
// of — rows with code z; PageFor would skip those.
func (b *Base) FirstPageFor(z uint64) int {
	return max(sort.Search(len(b.PageMinZ), func(i int) bool { return b.PageMinZ[i] >= z })-1, 0)
}

// SizeBytes reports the page metadata footprint.
func (b *Base) SizeBytes() int64 {
	return int64(len(b.PageMinZ))*8 + int64(len(b.PageRows))*4
}

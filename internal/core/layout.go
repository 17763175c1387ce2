// Package core implements the Flood index itself: a learned multi-dimensional
// clustered in-memory index (§3, §5 of the paper).
//
// A layout arranges d attributes as a (d-1)-dimensional grid plus a sort
// dimension. Grid column boundaries are learned per dimension from the data's
// CDF ("flattening", §5.1) so that each column holds roughly the same number
// of points; within a cell, points are sorted by the sort dimension, and
// refinement searches that column's zone map where the paper trains a
// per-cell piecewise-linear model (§5.2). Queries run as projection →
// refinement → scan (§3.2).
package core

import (
	"fmt"
	"math"
	"strings"
)

// Layout describes the shape of a Flood grid: which dimensions form the grid
// (in traversal order), how many columns each gets, which dimension points
// are sorted by inside each cell, and whether column boundaries are flattened
// by the data's per-dimension CDF.
type Layout struct {
	// GridDims lists the table dimensions that form the grid, ordered
	// from most to least significant in the cell traversal.
	GridDims []int
	// GridCols holds the number of columns per grid dimension
	// (len(GridCols) == len(GridDims), every entry >= 1).
	GridCols []int
	// SortDim is the dimension used to order points within each cell, or
	// -1 for a layout with no sort dimension (the "Simple Grid" ablation
	// of Fig. 11).
	SortDim int
	// Flatten selects learned CDF column boundaries (§5.1) instead of
	// equi-width columns.
	Flatten bool
}

// Validate checks the layout against a table with nDims dimensions.
func (l Layout) Validate(nDims int) error {
	if len(l.GridDims) != len(l.GridCols) {
		return fmt.Errorf("core: %d grid dims but %d column counts", len(l.GridDims), len(l.GridCols))
	}
	seen := make(map[int]bool, len(l.GridDims)+1)
	for i, d := range l.GridDims {
		if d < 0 || d >= nDims {
			return fmt.Errorf("core: grid dim %d out of range [0, %d)", d, nDims)
		}
		if seen[d] {
			return fmt.Errorf("core: dimension %d appears twice", d)
		}
		seen[d] = true
		if l.GridCols[i] < 1 {
			return fmt.Errorf("core: grid dim %d has %d columns, want >= 1", d, l.GridCols[i])
		}
	}
	if l.SortDim != -1 {
		if l.SortDim < 0 || l.SortDim >= nDims {
			return fmt.Errorf("core: sort dim %d out of range [0, %d)", l.SortDim, nDims)
		}
		if seen[l.SortDim] {
			return fmt.Errorf("core: sort dim %d is also a grid dim", l.SortDim)
		}
	}
	if len(l.GridDims) == 0 && l.SortDim == -1 {
		return fmt.Errorf("core: layout indexes no dimensions")
	}
	// Cell ids are int32. The product is checked factor by factor so that
	// column counts whose product wraps cannot pass as a small grid.
	cells := 1
	for _, c := range l.GridCols {
		if cells *= c; cells <= 0 || cells > math.MaxInt32 {
			return fmt.Errorf("core: layout has more than %d cells: grid columns %v", math.MaxInt32, l.GridCols)
		}
	}
	return nil
}

// maxCells is the largest grid Build accepts over a table of rows rows. A
// cell costs 16 bytes of cell table and model slots whether or not a row
// falls in it, so a grid out of all proportion to its data — four rows under
// 2³¹ cells — is refused instead of allocated. The optimizer stops at half a
// cell per row (1024 for small tables), calibration's random layouts at a
// quarter: nothing learned comes near.
func maxCells(rows int) int { return 4 * max(rows, 1<<20) }

// NumCells returns the total number of grid cells.
func (l Layout) NumCells() int {
	n := 1
	for _, c := range l.GridCols {
		n *= c
	}
	return n
}

// strides returns the mixed-radix stride of each grid dimension in the cell
// number: the last grid dimension varies fastest.
func (l Layout) strides() []int {
	out := make([]int, len(l.GridDims))
	stride := 1
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = stride
		stride *= l.GridCols[i]
	}
	return out
}

// String renders the layout compactly, e.g. "grid[2:8 0:4] sort=1 flat".
func (l Layout) String() string {
	var b strings.Builder
	b.WriteString("grid[")
	for i, d := range l.GridDims {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", d, l.GridCols[i])
	}
	b.WriteString("]")
	if l.SortDim >= 0 {
		fmt.Fprintf(&b, " sort=%d", l.SortDim)
	}
	if l.Flatten {
		b.WriteString(" flat")
	}
	return b.String()
}

// Options configures index construction.
type Options struct {
	// BitmapMaxCardinality is the largest per-column value spread
	// (max-min+1) for which Build creates a bitmap index: low-cardinality
	// columns (dictionary-coded strings, enums, flags) then resolve
	// residual filters, equality or range, from two precomputed bitmaps in
	// the scan kernel.
	// 0 picks DefaultBitmapMaxCardinality; negative disables bitmap
	// indexes.
	BitmapMaxCardinality int
}

// DefaultBitmapMaxCardinality is the bitmap-index cardinality threshold used
// when Options.BitmapMaxCardinality is zero. At 64 values spread uniformly,
// a one-million-row column costs 4 MB of interval-encoded bitmaps — half the
// raw column, but about 4.4× the 0.91 MB its compressed form takes — while
// an equality or range filter of any width replaces 1M packed compares with
// 15.6K word formulas over two of those bitmaps. Each 512-row stripe keeps
// bitmaps only for the values it holds, so the same column as a grid
// dimension of 8 columns, about 8 values a stripe, costs about 0.5 MB.
const DefaultBitmapMaxCardinality = 64

// bitmapMaxCard resolves Options.BitmapMaxCardinality to an effective
// threshold (0 means disabled).
func (o Options) bitmapMaxCard() int {
	switch {
	case o.BitmapMaxCardinality > 0:
		return o.BitmapMaxCardinality
	case o.BitmapMaxCardinality < 0:
		return 0
	default:
		return DefaultBitmapMaxCardinality
	}
}

package core

import (
	"math/rand"
	"sort"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

// TestRefineRangesMatchesIndependentSearches holds refineRanges — a lower
// bound searched over the cell's block minima, then a gallop from it to the
// upper bound — to two sort.Search calls over the cell's decoded sort
// values, on random cells and sort-dimension ranges. One-sided, point, empty and
// out-of-domain ranges ride along. The layouts give cells of a few blocks,
// cells smaller than one block (every cell boundary inside a block), and two
// cells of over 1,000 blocks each, the shape of a lookup over two large cells.
func TestRefineRangesMatchesIndependentSearches(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rows   int
		layout Layout
		ok     func(size int) bool // every non-empty cell's row count
	}{
		{"few-blocks", 40_000, Layout{GridDims: []int{0, 2}, GridCols: []int{5, 3}, SortDim: 1, Flatten: true},
			func(int) bool { return true }},
		{"sub-block", 40_000, Layout{GridDims: []int{0, 2}, GridCols: []int{100, 10}, SortDim: 1, Flatten: true},
			func(size int) bool { return size < colstore.BlockSize }},
		{"two-huge", 300_000, Layout{GridDims: []int{0}, GridCols: []int{2}, SortDim: 1, Flatten: true},
			func(size int) bool { return size > 1000*colstore.BlockSize }},
	} {
		tbl, data := makeData(t, tc.rows, 4, 41)
		f, err := Build(tbl, tc.layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for c := range f.numCells {
			if start, end := f.CellBounds(c); start != end && !tc.ok(end-start) {
				t.Fatalf("%s: cell %d holds %d rows, not the shape under test", tc.name, c, end-start)
			}
		}
		keys := f.t.Raw(tc.layout.SortDim)
		rng := rand.New(rand.NewSource(42))
		vals := data[tc.layout.SortDim]
		for trial := 0; trial < 400; trial++ {
			q := randomQuery(rng, data, 2)
			lo, hi := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			if lo > hi {
				lo, hi = hi, lo
			}
			switch trial % 6 {
			case 1:
				hi = lo // point
			case 2:
				lo = query.NegInf
			case 3:
				hi = query.PosInf
			case 4:
				lo, hi = hi+1_000_000, hi+2_000_000 // above every value
			case 5:
				lo, hi = lo-1, lo-1 // often between two values
			}
			q.Ranges[tc.layout.SortDim] = query.Range{Min: lo, Max: hi, Present: true}

			var st query.Stats
			es := new(execScratch)
			f.project(q, es, &st)
			spans := es.spans
			want := make([]Span, len(spans))
			for i, sp := range spans {
				want[i] = sp
				cell := keys[sp.Start:sp.End]
				if lo != query.NegInf {
					want[i].Start = sp.Start + int32(sort.Search(len(cell), func(j int) bool { return cell[j] >= lo }))
				}
				if hi != query.PosInf {
					want[i].End = sp.Start + int32(sort.Search(len(cell), func(j int) bool { return cell[j] > hi }))
				}
			}
			f.refineRanges(q, spans)
			for i := range spans {
				if spans[i] != want[i] {
					t.Fatalf("%s: sort range [%d,%d], span %d: refined to [%d,%d), sort.Search gives [%d,%d)",
						tc.name, lo, hi, i, spans[i].Start, spans[i].End, want[i].Start, want[i].End)
				}
			}
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"flood/internal/query"
)

// TestRefineRangesMatchesIndependentSearches holds refineRanges — a lower
// bound from the cell's model, then a gallop from it to the upper bound — to
// two independent LowerBound calls over the unrefined cell, on random cells
// and sort-dimension ranges. One-sided, point, empty and out-of-domain ranges
// ride along.
func TestRefineRangesMatchesIndependentSearches(t *testing.T) {
	tbl, data := makeData(t, 40_000, 4, 41)
	layout := Layout{GridDims: []int{0, 2}, GridCols: []int{5, 3}, SortDim: 1, Flatten: true}
	f, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := f.t.Column(layout.SortDim)
	rng := rand.New(rand.NewSource(42))
	vals := data[layout.SortDim]
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
		q.Ranges[layout.SortDim] = query.Range{Min: lo, Max: hi, Present: true}

		var st query.Stats
		es := new(execScratch)
		f.project(q, es, &st)
		spans, cells := es.spans, es.cells
		want := make([]Span, len(spans))
		for i, sp := range spans {
			want[i] = sp
			if lo != query.NegInf {
				want[i].Start = int32(col.LowerBound(int(sp.Start), int(sp.End), lo))
			}
			if hi != query.PosInf {
				want[i].End = int32(col.LowerBound(int(sp.Start), int(sp.End), hi+1))
			}
		}
		f.refineRanges(q, spans, cells)
		for i := range spans {
			if spans[i] != want[i] {
				t.Fatalf("sort range [%d,%d], cell %d: refined to [%d,%d), independent searches give [%d,%d)",
					lo, hi, cells[i], spans[i].Start, spans[i].End, want[i].Start, want[i].End)
			}
		}
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"flood/internal/colstore"
)

// Source is a table as a build reads it: compressed columns that are decoded
// when a build asks for one, or raw columns a caller already holds. One
// Source made by NewSource serves any number of layouts and keeps between
// them what does not depend on the layout.
type Source struct {
	t    *colstore.Table // names, aggregate flags and, unless cols is set, the columns
	cols [][]int64       // raw columns resident for the source's life, n rows each
	n    int
	opts Options

	// counted[dim] is a flattened dimension's value counts, kept from the
	// first layout that grids it; nil unless the source was made to be
	// built from repeatedly (NewSource).
	counted []*valueCounts

	decodes []int // whole-column decodes so far, per column
}

func tableSource(t *colstore.Table, opts Options) *Source {
	return &Source{t: t, n: t.NumRows(), opts: opts, decodes: make([]int, t.NumCols())}
}

// NewSource prepares t for building many layouts under opts — cost-model
// calibration builds ten. Every column is decoded now, once, and each
// flattened dimension's value counts are kept from the first layout that
// grids the dimension, so a later layout cuts the dimension at its own column
// count from the counts and buckets its rows in one table pass, and neither
// counts nor sorts it again. That is the whole table and its dimensions'
// distinct values resident while the Source lives; a single build should use Build, which holds a column or two
// per worker. Builds of one Source must not run concurrently.
func NewSource(t *colstore.Table, opts Options) *Source {
	s := tableSource(t, opts)
	cols := make([][]int64, t.NumCols())
	for c := range cols {
		cols[c] = s.column(c, new([]int64))
	}
	s.cols, s.counted = cols, make([]*valueCounts, len(cols))
	return s
}

// column returns column c in row order, decoding it into *buf when the
// source does not hold it raw. The result is read-only.
func (s *Source) column(c int, buf *[]int64) []int64 {
	if s.cols != nil {
		return s.cols[c]
	}
	s.decodes[c]++
	*buf = s.t.Column(c).DecodeInto(*buf)
	return *buf
}

// bounds returns the smallest and largest value of column c, whose rows raw
// holds (0, 0 for no rows). A source that reads its columns from the table
// takes them from the column's zone maps, a block's bounds each, which are
// exact for any table: a built column's by construction, a decoded one's
// because colstore.DecodeTable recomputes every block's maximum from its
// values and refuses a block that does not decode to its stored minimum.
// A source holding raw columns scans them, since a merge's are not the
// table's rows; reading the zone maps saves a one-shot build that scan,
// about 1 ns a value of every grid column.
func (s *Source) bounds(c int, raw []int64) (lo, hi int64) {
	if len(raw) == 0 {
		return 0, 0
	}
	if s.cols != nil {
		return slices.Min(raw), slices.Max(raw)
	}
	col := s.t.Column(c)
	lo, hi = col.BlockBounds(0)
	for b := 1; b < col.NumBlocks(); b++ {
		bl, bh := col.BlockBounds(b)
		lo, hi = min(lo, bl), max(hi, bh)
	}
	return lo, hi
}

// buildScratch is one worker's buffers. They are allocated when first needed
// and reused from column to column and phase to phase, so a build's
// footprint is set by its worker count, not the table's width.
type buildScratch struct {
	raw    []int64 // a column decoded from a compressed source
	cells  []int32 // this worker's share of every row's cell number
	counts valueCounts
	keys   []int64 // a wide grid column, sorted
	terms  []int32 // a narrow column's histogram, then a grid dimension's column table
	sort   colstore.SortScratch
}

// Build constructs a Flood index over t with the given layout. The input
// table is not modified; the index holds a reordered copy.
//
// The build compares no two keys and fits no model. A flattened grid column
// is decoded and reduced to its distinct values' counts — a histogram when
// its values span fewer than a quarter of its rows, a colstore.RadixSort of
// a copy otherwise — and cut into its columns at the value boundaries
// nearest its equal-count quantiles (valueCounts.cut); every row is then
// bucketed through a table over the values' offsets (addCutTerms), and the
// index keeps the cut's step points. A counting sort
// over cell numbers — whose histogram is the cell table (§3.2.1) — places
// the rows and carries the sort dimension's values with them; each cell's
// (value, row) run is then ordered by a stable radix sort, cells in
// parallel; and every column but the sort dimension is decoded and handed to
// the table writer with the permutation, which gathers it a block at a time
// as it compresses it. A worker holds one raw column at a time whatever the
// table's width, which is why a grid column is decoded a second time to be
// gathered rather than kept; the sort dimension and the columns outside the
// grid are decoded once. The sorted sort values are the stored column;
// aggregate companions and bitmap indexes are made from the gathered blocks,
// not from a decode of the new column.
//
// Tie order: within a cell, rows with equal sort keys — all rows of a cell,
// when the layout has no sort dimension — keep the order they had in t. A
// table therefore has exactly one index per layout, and two builds of it
// save to the same bytes.
func Build(t *colstore.Table, layout Layout, opts Options) (*Flood, error) {
	return tableSource(t, opts).Build(layout)
}

// Build constructs the index of the source's table under layout; see the
// package-level Build for what it does and guarantees.
func (s *Source) Build(layout Layout) (*Flood, error) {
	d, n := s.t.NumCols(), s.n
	if err := layout.Validate(d); err != nil {
		return nil, err
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: table has %d rows; max supported is %d", n, math.MaxInt32)
	}
	if d > 64 {
		// Residual filter sets are dimension bitmasks in one uint64.
		return nil, fmt.Errorf("core: table has %d dimensions; max supported is 64", d)
	}
	numCells := layout.NumCells()
	if limit := maxCells(n); numCells > limit {
		return nil, fmt.Errorf("core: layout has %d cells over %d rows; at most %d are built", numCells, n, limit)
	}
	f := &Flood{layout: layout, opts: s.opts, numCells: numCells, strides: layout.strides()}
	f.parallelCutover = defaultParallelCutover

	// Bucket every row along every grid dimension. Dimensions are
	// independent, so they go to workers whole, each adding its dimensions'
	// terms of the cell number into its own array.
	// One scratch per goroutine RunBatch can run at once, lent for a task.
	ws := make(chan *buildScratch, maxWorkers())
	for range cap(ws) {
		ws <- new(buildScratch)
	}
	f.steps = make([]steps, len(layout.GridDims))
	RunBatch(len(layout.GridDims), func(gi int) {
		w := <-ws
		defer func() { ws <- w }()
		if w.cells == nil {
			w.cells = make([]int32, n)
		}
		f.steps[gi] = s.assign(layout, gi, int32(f.strides[gi]), w)
	})
	// The first worker's array becomes every row's cell number: the others
	// are added into it, a row range per task.
	var cells []int32
	var terms [][]int32
	for range cap(ws) {
		w := <-ws
		if cells == nil {
			cells = w.cells
		} else if w.cells != nil {
			terms = append(terms, w.cells)
		}
		w.cells = nil
		ws <- w
	}
	if cells == nil {
		cells = make([]int32, n)
	}
	if len(terms) > 0 {
		grain := max(n/maxWorkers(), 1<<16)
		RunBatch((n+grain-1)/grain, func(k int) {
			lo, hi := k*grain, min(n, k*grain+grain)
			for _, t := range terms {
				for i, c := range t[lo:hi] {
					cells[lo+i] += c
				}
			}
		})
	}

	// Order rows by (cell, sort value): a depth-first traversal of the grid
	// with per-cell sorting (§3.1). Cell order is an O(n) counting sort whose
	// histogram is the cell table (§3.2.1), run over a few row ranges at
	// once: each range counts its rows per cell, the counts turn into each
	// range's first slot in each cell — earlier ranges first, so a cell
	// receives its rows in input order — and each range places its own rows.
	// A row's sort value travels with it, so the sort column is never
	// gathered.
	parts := min(maxWorkers(), max(1, n/max(numCells, 1<<16)))
	span := (n + parts - 1) / parts
	next := make([][]int32, parts)
	RunBatch(parts, func(k int) {
		next[k] = make([]int32, numCells)
		for _, c := range cells[k*span : min(n, k*span+span)] {
			next[k][c]++
		}
	})
	f.cellStart = make([]int32, numCells+1)
	var at int32
	for c := 0; c < numCells; c++ {
		f.cellStart[c] = at
		for _, cnt := range next {
			cnt[c], at = at, at+cnt[c]
		}
	}
	f.cellStart[numCells] = at
	perm := make([]int32, n)
	var keys, sortVals []int64
	w := <-ws
	if layout.SortDim >= 0 {
		keys, sortVals = make([]int64, n), s.column(layout.SortDim, &w.raw)
	}
	RunBatch(parts, func(k int) {
		lo := k * span
		for i, c := range cells[lo:min(n, lo+span)] { // the range counted above
			p := next[k][c]
			next[k][c] = p + 1
			perm[p] = int32(lo + i)
			if keys != nil {
				keys[p] = sortVals[lo+i]
			}
		}
	})
	ws <- w
	if keys != nil {
		// The stable per-cell sort keeps input order among equal keys.
		// Chunks of about equal row count each sort the cells that start
		// inside them: a cell's pairs fit a core's cache, and a skewed grid
		// still splits evenly.
		grain := max(n/(8*maxWorkers()), 1<<14)
		RunBatch((n+grain-1)/grain, func(k int) {
			w := <-ws
			defer func() { ws <- w }()
			lo, hi := k*grain, min(n, k*grain+grain)
			c := sort.Search(numCells, func(c int) bool { return int(f.cellStart[c]) >= lo })
			for ; c < numCells && int(f.cellStart[c]) < hi; c++ {
				cs, ce := f.cellStart[c], f.cellStart[c+1]
				colstore.RadixSort(keys[cs:ce], perm[cs:ce], &w.sort)
			}
		})
	}

	// Gather every other column into the new order as it is compressed,
	// with its aggregate companion and, for a low-cardinality column, its
	// bitmap index (residual filters on it become bitmap ANDs in the scan
	// kernel) made from the gathered blocks.
	tw := colstore.NewTableWriter(s.t.Names(), n, s.opts.bitmapMaxCard())
	RunBatch(d, func(c int) {
		if c == layout.SortDim {
			tw.SetColumn(c, keys, nil, s.t.HasAggregate(c))
			return
		}
		w := <-ws
		defer func() { ws <- w }()
		tw.SetColumn(c, s.column(c, &w.raw), perm, s.t.HasAggregate(c))
	})
	f.t = tw.Table()
	f.computeCellStats()
	return f, nil
}

// assign cuts grid dimension gi into its columns, adds the dimension's term
// of every row's cell number, column × stride, into w.cells, and returns the
// cut's step points. A flattened dimension is cut from its value counts; an
// equal-width one (§3.1) divides [min, max] evenly, its step points found by
// bisecting that function.
func (s *Source) assign(layout Layout, gi int, stride int32, w *buildScratch) steps {
	dim, cols := layout.GridDims[gi], layout.GridCols[gi]
	raw := s.column(dim, &w.raw)
	if !layout.Flatten {
		minV, maxV := s.bounds(dim, raw)
		rangeSz := float64(maxV) - float64(minV) + 1
		st := stepPoints(func(v int64) int { return equalWidthBucket(v, minV, rangeSz, cols) }, cols)
		addCutTerms(w.cells, raw, minV, maxV, st, stride, &w.terms)
		return st
	}
	vc := &w.counts
	if s.counted == nil || s.counted[dim] == nil {
		lo, hi := s.bounds(dim, raw)
		vc.count(raw, lo, hi, w)
		if s.counted != nil {
			s.counted[dim] = vc.clone()
		}
	} else {
		vc = s.counted[dim]
	}
	st := vc.cut(cols)
	if nv := len(vc.vals); nv > 0 {
		addCutTerms(w.cells, raw, vc.vals[0], vc.vals[nv-1], st, stride, &w.terms)
	}
	return st
}

// narrow reports whether n values within [minV, maxV] span fewer values than
// a quarter of their count: a table with an entry per value is then cheaper
// than sorting them or searching per row.
func narrow(minV, maxV int64, n int) bool { return uint64(maxV)-uint64(minV) < uint64(n/4) }

package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"flood/internal/colstore"
	"flood/internal/plm"
	"flood/internal/rmi"
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

	// flat[dim] is what flattening learns about a dimension whatever the
	// layout, kept from the first layout that grids it; nil unless the
	// source was made to be built from repeatedly (NewSource).
	flat []flattened

	decodes []int // whole-column decodes so far, per column
}

// flattened is a dimension's flattening CDF and that CDF's value at every
// row, from which any column count buckets the row with one multiply.
type flattened struct {
	cdf *rmi.CDF
	pos []float64
}

func tableSource(t *colstore.Table, opts Options) *Source {
	return &Source{t: t, n: t.NumRows(), opts: opts, decodes: make([]int, t.NumCols())}
}

// NewSource prepares t for building many layouts under opts — cost-model
// calibration builds ten. Every column is decoded now, once, and each
// dimension's flattening CDF and every row's position under it are kept from
// the first layout that grids the dimension, so later layouts neither sort
// the column nor evaluate the model again. That is the whole table and as
// much again resident while the Source lives; a single build should use Build,
// which holds a column or two per worker. Builds of one Source must not run
// concurrently.
func NewSource(t *colstore.Table, opts Options) *Source {
	s := tableSource(t, opts)
	cols := make([][]int64, t.NumCols())
	for c := range cols {
		cols[c] = s.column(c, new([]int64))
	}
	s.cols, s.flat = cols, make([]flattened, len(cols))
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

// buildScratch is one worker's row-length buffers. They are allocated when
// first needed and reused from column to column and phase to phase, so a
// build's footprint is set by its worker count, not the table's width.
type buildScratch struct {
	raw   []int64 // a column decoded from a compressed source
	out   []int64 // a grid column sorted for its CDF; a column gathered into its new order
	cells []int32 // this worker's share of every row's cell number
	sort  colstore.SortScratch
}

// Build constructs a Flood index over t with the given layout. The input
// table is not modified; the index holds a reordered copy.
//
// The build compares no two keys. A grid column is decoded to fit its
// flattening CDF (to a copy ordered by colstore.RadixSort) and bucket every
// row in the same pass; a counting sort over cell numbers — whose histogram is
// the cell table (§3.2.1) — places the rows and carries the sort dimension's
// values with them; each cell's (value, row) run is then ordered by a stable
// radix sort, cells in parallel; and every column but the sort dimension is
// decoded, gathered into the final order and compressed. A worker holds two
// raw columns at a time whatever the table's width, which is why a grid
// column is decoded a second time to be gathered rather than kept; the sort
// dimension and the columns outside the grid are decoded once. The sorted
// sort values are the stored column and train the per-cell models; aggregate
// companions and bitmap indexes are made from the gathered values, not from
// a decode of the new column.
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
	f.parallelCutover = resolveCutover(s.opts.ParallelCutover)

	// Bucket every row along every grid dimension. Dimensions are
	// independent, so they go to workers whole, each adding its dimensions'
	// terms of the cell number into its own array.
	// One scratch per goroutine RunBatch can run at once, lent for a task.
	ws := make(chan *buildScratch, maxWorkers())
	for range cap(ws) {
		ws <- new(buildScratch)
	}
	f.buckets = make([]bucketer, len(layout.GridDims))
	RunBatch(len(layout.GridDims), func(gi int) {
		w := <-ws
		defer func() { ws <- w }()
		if w.cells == nil {
			w.cells = make([]int32, n)
		}
		f.buckets[gi] = s.assign(layout, gi, int32(f.strides[gi]), w)
	})
	cells := make([]int32, n)
	for range cap(ws) {
		w := <-ws
		for i, c := range w.cells {
			cells[i] += c
		}
		w.cells = nil
		ws <- w
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

	// Gather every other column into the new order and compress it, with
	// its aggregate companion and, for a low-cardinality column, its bitmap
	// index (residual filters on it become bitmap ANDs in the scan kernel)
	// made from the values in hand.
	tw := colstore.NewTableWriter(s.t.Names(), n, s.opts.bitmapMaxCard())
	RunBatch(d, func(c int) {
		if c == layout.SortDim {
			tw.SetColumn(c, keys, s.t.HasAggregate(c))
			return
		}
		w := <-ws
		defer func() { ws <- w }()
		raw := s.column(c, &w.raw)
		w.out = slices.Grow(w.out[:0], n)[:n]
		for r, p := range perm {
			w.out[r] = raw[p]
		}
		tw.SetColumn(c, w.out, s.t.HasAggregate(c))
	})
	f.t = tw.Table()

	f.trainModels(keys)
	f.computeCellStats()
	return f, nil
}

// trainModels fits the per-cell refinement models over the sort dimension
// (§5.2): one piecewise-linear model per non-empty cell, from keys, the
// stored sort column. An index with no sort dimension or no rows has none.
func (f *Flood) trainModels(keys []int64) {
	if len(keys) == 0 {
		return
	}
	f.models = make([]*plm.Model, f.numCells)
	parallelFor(f.numCells, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if cs, ce := f.cellStart[c], f.cellStart[c+1]; cs != ce {
				f.models[c] = plm.Train(keys[cs:ce], plm.DefaultDelta)
			}
		}
	})
}

// assign fits grid dimension gi's bucketer and adds the dimension's term of
// every row's cell number, bucket × stride, into w.cells.
func (s *Source) assign(layout Layout, gi int, stride int32, w *buildScratch) bucketer {
	dim, cols := layout.GridDims[gi], layout.GridCols[gi]
	cells := w.cells
	if !layout.Flatten {
		raw := s.column(dim, &w.raw)
		var minV, maxV int64
		if len(raw) > 0 {
			minV, maxV = slices.Min(raw), slices.Max(raw)
		}
		b := newLinearBucketer(minV, maxV)
		addTerms(cells, raw, minV, maxV, b, cols, stride)
		return b
	}
	if s.flat != nil && s.flat[dim].cdf != nil {
		for i, p := range s.flat[dim].pos {
			cells[i] += int32(rmi.BucketAt(p, cols)) * stride
		}
		return cdfBucketer{cdf: s.flat[dim].cdf}
	}
	raw := s.column(dim, &w.raw)
	// The sorted copy goes where the gather phase will put its columns.
	w.out = append(w.out[:0], raw...)
	colstore.RadixSort(w.out, nil, &w.sort)
	cdf := rmi.TrainCDFSorted(w.out, defaultCDFLeaves(s.n))
	if s.flat == nil {
		minV, maxV := cdf.Domain()
		addTerms(cells, raw, minV, maxV, cdfBucketer{cdf: cdf}, cols, stride)
		return cdfBucketer{cdf: cdf}
	}
	pos := make([]float64, len(raw))
	for i, v := range raw {
		pos[i] = cdf.At(v)
		cells[i] += int32(rmi.BucketAt(pos[i], cols)) * stride
	}
	s.flat[dim] = flattened{cdf: cdf, pos: pos}
	return cdfBucketer{cdf: cdf}
}

// addTerms adds bucket × stride to every row's cell number, raw holding the
// dimension's values, all within [minV, maxV]. A column much narrower than it
// is long — dates, quantities, dictionary codes — has its term worked out
// once per distinct value and looked up per row.
func addTerms(cells []int32, raw []int64, minV, maxV int64, b bucketer, cols int, stride int32) {
	if span := uint64(maxV) - uint64(minV); span < uint64(len(raw)/4) {
		terms := make([]int32, span+1)
		for k := range terms {
			terms[k] = int32(b.bucket(minV+int64(k), cols)) * stride
		}
		for i, v := range raw {
			cells[i] += terms[v-minV]
		}
		return
	}
	for i, v := range raw {
		cells[i] += int32(b.bucket(v, cols)) * stride
	}
}

func defaultCDFLeaves(n int) int { return min(max(n/64, 16), 1024) }

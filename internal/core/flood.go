package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flood/internal/colstore"
	"flood/internal/query"
)

// Flood is a built index: the table reordered into grid traversal order, the
// cell table mapping cells to physical ranges, and each grid dimension's step
// points. Refinement along the sort dimension searches the stored column's
// zone map and needs no model of its own.
type Flood struct {
	t      *colstore.Table
	layout Layout
	opts   Options

	steps     []steps // one per grid dimension
	strides   []int   // mixed-radix strides per grid dimension
	numCells  int
	cellStart []int32 // len numCells+1: physical start per cell

	// Cell-size statistics for the cost model (§4.1.1).
	nonEmptyCells  int
	avgCellSize    float64
	medianCellSize float64
	p99CellSize    float64

	// parallelCutover is the estimated scanned-row count at or above which
	// Execute leaves the zero-alloc sequential scan for the morsel-driven
	// parallel engine (see exec_parallel.go). Build and Load set it to
	// defaultParallelCutover; only tests lower it, to force the morsel
	// engine on a small table.
	parallelCutover int

	// tomb is the current tombstone set (nil until the first delete). Each
	// published value is immutable; mutators install a copied superset (see
	// mutate.go), and every query captures the pointer exactly once at scan
	// setup, so one Execute observes one consistent deleted set end to end
	// even while deletes race it.
	tomb atomic.Pointer[colstore.Tombstones]
}

// execScratch holds the per-query working set of Execute — projection
// coordinates and the span list — so the steady-state query path allocates
// nothing. Scratch is pooled package-wide; slices grow to each index's
// dimensionality once and are reused.
type execScratch struct {
	spans   []Span
	los     []int
	his     []int
	coords  []int
	present []bool
}

var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

func (es *execScratch) grids(g int) (los, his, coords []int, present []bool) {
	if cap(es.los) < g {
		es.los = make([]int, g)
		es.his = make([]int, g)
		es.coords = make([]int, g)
		es.present = make([]bool, g)
	}
	return es.los[:g], es.his[:g], es.coords[:g], es.present[:g]
}

func (f *Flood) computeCellStats() {
	sizes := make([]int, 0, f.numCells)
	total := 0
	for c := 0; c < f.numCells; c++ {
		if sz := int(f.cellStart[c+1] - f.cellStart[c]); sz > 0 {
			sizes = append(sizes, sz)
			total += sz
		}
	}
	f.nonEmptyCells = len(sizes)
	if len(sizes) == 0 {
		return
	}
	sort.Ints(sizes)
	f.avgCellSize = float64(total) / float64(len(sizes))
	f.medianCellSize = float64(sizes[len(sizes)/2])
	f.p99CellSize = float64(sizes[(len(sizes)-1)*99/100])
}

// Name identifies the index in reports.
func (f *Flood) Name() string { return "Flood" }

// Layout returns the layout the index was built with.
func (f *Flood) Layout() Layout { return f.layout }

// Table returns the index's reordered data.
func (f *Flood) Table() *colstore.Table { return f.t }

// NumCells returns the total number of grid cells.
func (f *Flood) NumCells() int { return f.numCells }

// NonEmptyCells returns the number of cells holding at least one point.
func (f *Flood) NonEmptyCells() int { return f.nonEmptyCells }

// CellSizeStats returns (average, median, 99th percentile) of non-empty cell
// sizes — cost model features (§4.1.1).
func (f *Flood) CellSizeStats() (avg, median, p99 float64) {
	return f.avgCellSize, f.medianCellSize, f.p99CellSize
}

// CellBounds returns the physical row range [start, end) stored for cell c.
func (f *Flood) CellBounds(c int) (start, end int) {
	return int(f.cellStart[c]), int(f.cellStart[c+1])
}

// SizeBytes reports index metadata size: the cell table and every grid
// dimension's step points, each table 8 bytes a point plus its slice header.
// The stored data itself is excluded.
func (f *Flood) SizeBytes() int64 {
	s := int64(len(f.cellStart)) * 4
	for _, st := range f.steps {
		s += stepsHeaderBytes + int64(len(st))*8
	}
	return s
}

// stepsHeaderBytes is what a grid dimension's step table costs besides its
// points: the slice header.
const stepsHeaderBytes = 24

// Execute runs q through projection, refinement and scan (§3.2).
//
// Small queries run the sequential path, which performs zero heap
// allocations in steady state: projection scratch and scan ranges come from
// a pool, and the scanner reuses per-dimension decode buffers. When the
// aggregator is mergeable and the refined ranges cover at least the
// cost-based cutover (defaultParallelCutover rows, known exactly and for
// free after refinement), the scan fans out over the morsel-driven worker
// pool instead (see exec_parallel.go); results and scan counters are
// identical either way.
func (f *Flood) Execute(q query.Query, agg query.Aggregator) query.Stats {
	return f.Run(nil, q, agg, 0)
}

// Run is the one controlled entry point under Execute and every facade.
// workers selects the scan strategy: 0 is adaptive (sequential below the
// cutover, GOMAXPROCS workers above it), 1 forces the sequential path — the
// per-query building block of a batch, which supplies the parallelism across
// queries instead (see RunBatch) — and n > 1 forces the morsel engine with n
// workers. ctl, when non-nil, threads cancellation and the shared limit
// budget into the scan phase: the sequential kernel polls it every few
// blocks and the morsel engine at every claim, so a stopped query ends within
// about a thousand rows or one morsel; a nil control is the unconditioned
// execution, allocation for allocation. The caller owns the control's
// lifecycle: Release it only after every execution threading it has
// returned.
//
// The four phase boundaries are monotonic clock readings (sinceBase), never
// the wall clock, and the phase times are differences of them, so the three
// add up to Total exactly.
func (f *Flood) Run(ctl *query.Control, q query.Query, agg query.Aggregator, workers int) query.Stats {
	var st query.Stats
	t0 := sinceBase()
	if q.Empty() || f.t.NumRows() == 0 || ctl.Stopped() {
		st.Total = sinceBase() - t0
		return st
	}
	es := scratchPool.Get().(*execScratch)
	f.project(q, es, &st)
	st.ProjectTime = sinceBase() - t0

	// Capture the tombstone set once per query: the scan stage (sequential
	// or morsel-parallel) masks against this snapshot only, giving the query
	// a stable view of the deleted set even while deletes land concurrently.
	tombW := f.tomb.Load().Words()

	// Pre-refinement row count: an upper bound on the scan volume, free to
	// compute. Refinement probes fan out only when the query is allowed to
	// parallelize at all (workers != 1) and was big before refinement —
	// so the sequential cutover path and batch workers (workers == 1)
	// never touch the pool, stay allocation-free, and skip the count
	// entirely.
	refineParallel := workers != 1 && spanRows(es.spans) >= f.parallelCutover
	f.refine(q, es.spans, &st, refineParallel)
	st.IndexTime = sinceBase() - t0
	st.RefineTime = st.IndexTime - st.ProjectTime

	scanSpans(f.t, tombW, ctl, q, es.spans, agg, workers, f.parallelCutover, &st)
	scratchPool.Put(es)
	st.Total = sinceBase() - t0
	st.ScanTime = st.Total - st.IndexTime
	return st
}

// clockBase anchors sinceBase. It carries a monotonic reading, and time.Since
// of such a Time reads only the monotonic clock: about half the cost of
// time.Now, which reads the wall clock too.
var clockBase = time.Now()

// sinceBase is a monotonic clock reading: the time since clockBase.
func sinceBase() time.Duration { return time.Since(clockBase) }

// refines reports whether sort-dimension refinement applies to q.
func (f *Flood) refines(q query.Query) bool {
	return f.layout.SortDim >= 0 && q.Ranges[f.layout.SortDim].Present
}

// project implements §3.2.1: identify the non-empty cells intersecting the
// query rectangle and their physical ranges, tagging each with the residual
// filter dimensions that must be row-checked during the scan.
//
// Cells are visited in increasing cell-number order, so physically adjacent
// ranges with identical residual masks are coalesced as they are emitted
// (the innermost grid dimension has stride 1: runs of cells along it map to
// one contiguous physical range). A large query rectangle therefore produces
// O(perimeter) scan ranges instead of O(volume). Coalescing is disabled when
// sort-dimension refinement applies, since refinement relies on per-cell
// sort order. CellsVisited counts only non-empty cells, matching
// NonEmptyCells accounting.
func (f *Flood) project(q query.Query, es *execScratch, st *query.Stats) {
	g := len(f.layout.GridDims)
	los, his, coords, present := es.grids(g)
	for gi, dim := range f.layout.GridDims {
		r := q.Ranges[dim]
		if r.Present {
			los[gi] = f.steps[gi].bucket(r.Min)
			his[gi] = f.steps[gi].bucket(r.Max)
			present[gi] = true
		} else {
			los[gi], his[gi] = 0, f.layout.GridCols[gi]-1
			present[gi] = false
		}
	}
	// Residual filters that must be checked per row: filtered dims that
	// are neither grid dims nor a refined sort dim.
	var baseMask uint64
	refine := f.refines(q)
	for d, r := range q.Ranges {
		if !r.Present {
			continue
		}
		if d == f.layout.SortDim && refine {
			continue
		}
		if gi := f.gridIndexOf(d); gi >= 0 {
			continue // handled per cell: interior cells skip the check
		}
		baseMask |= 1 << uint(d)
	}

	spans := es.spans[:0]
	copy(coords, los)
	for {
		cell := 0
		mask := baseMask
		for gi := 0; gi < g; gi++ {
			cell += coords[gi] * f.strides[gi]
			if present[gi] && (coords[gi] == los[gi] || coords[gi] == his[gi]) {
				mask |= 1 << uint(f.layout.GridDims[gi])
			}
		}
		cs, ce := f.cellStart[cell], f.cellStart[cell+1]
		if cs != ce {
			st.CellsVisited++
			if !refine && len(spans) > 0 {
				if last := &spans[len(spans)-1]; last.Mask == mask && last.End == cs {
					last.End = ce
					goto next
				}
			}
			spans = append(spans, Span{Start: cs, End: ce, Mask: mask})
		}
	next:
		// Odometer over the query rectangle's cells.
		gi := g - 1
		for ; gi >= 0; gi-- {
			coords[gi]++
			if coords[gi] <= his[gi] {
				break
			}
			coords[gi] = los[gi]
		}
		if gi < 0 {
			break
		}
	}
	es.spans = spans
	st.ScanRanges = int64(len(spans))
}

// refineParallelRanges is the range count at which refinement probes fan out
// over the worker pool, two refineGrain tasks and up; below it, the probes
// cost less than handing a chunk to a helper. That holds for a lingering
// helper (1–2 µs to join, see spinWindow); a parked one costs 50–60 µs to
// wake, more than a query's probes, so only a helper still awake from the
// previous query earns its keep here. On olap_flat's queries of up to 180
// cells (two-core 2.1 GHz Xeon, traced, four rounds) refinement took
// 4.1–4.6 µs a query at 64, 4.5–5.3 at 128 and 5.1–5.5 never parallel.
const refineParallelRanges = 64

// refine implements §3.2.2: narrow each span along the sort dimension,
// mutating spans in place. When parallel is set, queries touching many cells
// spread the probes per-range over the worker pool: ranges are independent,
// so results match the sequential loop exactly.
func (f *Flood) refine(q query.Query, spans []Span, st *query.Stats, parallel bool) {
	if !f.refines(q) {
		return
	}
	st.RangesRefined += int64(len(spans))
	if parallel && len(spans) >= refineParallelRanges && maxWorkers() > 1 {
		f.refineParallel(q, spans)
		return
	}
	f.refineRanges(q, spans)
}

// refineRanges narrows one slice of ranges; it is the workhorse shared by
// the sequential and parallel refinement paths. Each range is one cell, and
// a cell's rows are sorted on the sort dimension, so the stored column's
// block minima index it exactly: a range's lower bound is a binary search
// over them, and its upper bound a gallop from the lower bound — a point or
// narrow range ends a few rows after it starts. The paper (§5.2) trains a
// piecewise-linear model per cell for the lower bound instead; the zone map
// answers the same, costs no build time or memory, and was faster on every
// benchmark dataset (docs/BENCHMARKS.md, "What zone-map refinement changed").
func (f *Flood) refineRanges(q query.Query, spans []Span) {
	r := q.Ranges[f.layout.SortDim]
	col := f.t.Column(f.layout.SortDim)
	for i := range spans {
		rg := &spans[i]
		i1, i2 := int(rg.Start), int(rg.End)
		if r.Min != query.NegInf {
			i1 = col.LowerBound(i1, i2, r.Min)
		}
		if r.Max != query.PosInf {
			i2 = col.LowerBoundFrom(i1, i2, r.Max+1)
		}
		rg.Start, rg.End = int32(i1), int32(i2)
	}
}

func (f *Flood) gridIndexOf(dim int) int {
	for gi, d := range f.layout.GridDims {
		if d == dim {
			return gi
		}
	}
	return -1
}

// The scan stage: the one execution path under Flood and every baseline.
//
// An index — Flood's grid, a baseline's tree, pages or buckets — answers a
// query by planning: it names the physical row ranges that can hold matches
// and, per range, which filters still need row checks. Everything after
// that is written here once: the sequential kernel with its pooled scanner,
// the cost-based cutover to the morsel engine (exec_parallel.go), control
// polling, the tombstone mask, and the Scanned/Matched/ExactMatched counts.
// docs/ARCHITECTURE.md ("Plan → spans → scan stage") states the contract.
package core

import (
	"math/bits"

	"flood/internal/colstore"
	"flood/internal/query"
)

// Span is one physical row range [Start, End) handed to the scan stage. Mask
// is the residual filter: bit d set means q.Ranges[d] must be checked per
// row. A planner may leave Mask zero only when every row of the span
// satisfies every filter of the query — such rows are accumulated without
// being looked at and counted as ExactMatched.
type Span struct {
	Start, End int32
	Mask       uint64
}

// ScanSpans runs the scan phase of q over spans of t, feeding matching rows
// to agg and adding the scan counters to st. workers selects the strategy as
// in Flood.Run — 0 adaptive (sequential below defaultParallelCutover rows,
// GOMAXPROCS workers at or above it), 1 the sequential kernel, n > 1 the
// morsel engine with n workers — and the parallel paths need a
// query.Mergeable aggregator; results and counters are identical either
// way. tomb is the
// word-packed tombstone set masked out of every span (nil: none); ctl, when
// non-nil, is polled between spans, inside the kernel every few blocks and
// at every morsel claim, so a canceled or limit-satisfied query stops within
// about a thousand rows or one morsel. The sequential path allocates
// nothing in steady state.
func ScanSpans(t *colstore.Table, tomb []uint64, ctl *query.Control, q query.Query, spans []Span, agg query.Aggregator, workers int, st *query.Stats) {
	scanSpans(t, tomb, ctl, q, spans, agg, workers, defaultParallelCutover, st)
}

// scanSpans is ScanSpans with the adaptive cutover given in rows: Flood.Run
// passes its per-index cutover, which core's tests lower.
func scanSpans(t *colstore.Table, tomb []uint64, ctl *query.Control, q query.Query, spans []Span, agg query.Aggregator, workers, cutover int, st *query.Stats) {
	if m, ok := agg.(query.Mergeable); ok && workers != 1 {
		est := spanRows(spans)
		if workers == 0 && est >= cutover {
			workers = maxWorkers()
		}
		if workers > 1 && scanParallel(t, tomb, ctl, q, spans, m, workers, est, st) {
			return
		}
	}
	var w spanWalker
	w.open(t, tomb, ctl)
	for _, sp := range spans {
		if ctl.Stopped() {
			break
		}
		w.scan(q, sp, agg, st)
	}
	w.close()
}

// spanRows is the number of rows spans cover: the scan volume, known exactly
// and for free once an index has planned.
func spanRows(spans []Span) int {
	n := 0
	for i := range spans {
		n += int(spans[i].End - spans[i].Start)
	}
	return n
}

// spanWalker is the per-span body shared by the sequential walk and every
// morsel worker: a pooled scanner plus the residual mask last expanded into
// dimension indexes (consecutive spans usually repeat it).
type spanWalker struct {
	sc    *query.Scanner
	mask  uint64 // the mask dims[:ndims] expands
	ndims int    // 0: nothing expanded yet (an expanded mask is never zero)
	dims  [64]int
}

func (w *spanWalker) open(t *colstore.Table, tomb []uint64, ctl *query.Control) {
	w.sc = query.GetScanner(t)
	w.sc.SetControl(ctl)
	w.sc.SetTombstones(tomb)
}

func (w *spanWalker) close() { w.sc.Release() }

// scan runs the kernel over one span: the exact fast path when no residual
// filter remains, the filtering kernel otherwise.
func (w *spanWalker) scan(q query.Query, sp Span, agg query.Aggregator, st *query.Stats) {
	if sp.Start >= sp.End {
		return
	}
	if sp.Mask == 0 {
		s, m := w.sc.ScanExactRange(int(sp.Start), int(sp.End), agg)
		st.Scanned += s
		st.Matched += m
		st.ExactMatched += m
		return
	}
	if w.ndims == 0 || sp.Mask != w.mask {
		w.mask, w.ndims = sp.Mask, 0
		for m := sp.Mask; m != 0; m &= m - 1 {
			w.dims[w.ndims] = bits.TrailingZeros64(m)
			w.ndims++
		}
	}
	s, m := w.sc.ScanRange(q, w.dims[:w.ndims], int(sp.Start), int(sp.End), agg)
	st.Scanned += s
	st.Matched += m
}

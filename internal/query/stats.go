package query

import (
	"context"
	"time"
)

// Stats instruments one query execution. The fields follow the performance
// breakdown of Table 2 in the paper.
type Stats struct {
	Scanned       int64 // points visited during the scan phase
	Matched       int64 // points satisfying the full predicate (result size)
	ExactMatched  int64 // matched points that lay in exact sub-ranges (§7.1)
	CellsVisited  int64 // non-empty cells/pages whose physical ranges were processed
	RangesRefined int64 // cells on which sort-dimension refinement ran
	ScanRanges    int64 // physical ranges handed to the scan phase (post-coalescing)

	IndexTime   time.Duration // projection + refinement (IT)
	ProjectTime time.Duration // projection only (subset of IndexTime; Flood only)
	RefineTime  time.Duration // refinement only (subset of IndexTime; Flood only)
	ScanTime    time.Duration // scan + filter (ST)
	Total       time.Duration // end-to-end (TT)
}

// ScanOverhead is the ratio of points scanned to points matched (SO in
// Table 2). Returns +Inf-like large value when nothing matched but points
// were scanned; 1 when the scan was perfectly tight; 0 for empty scans.
func (s Stats) ScanOverhead() float64 {
	if s.Matched == 0 {
		if s.Scanned == 0 {
			return 0
		}
		return float64(s.Scanned)
	}
	return float64(s.Scanned) / float64(s.Matched)
}

// TimePerScan is the average scan time per scanned point in nanoseconds (TPS
// in Table 2).
func (s Stats) TimePerScan() float64 {
	if s.Scanned == 0 {
		return 0
	}
	return float64(s.ScanTime.Nanoseconds()) / float64(s.Scanned)
}

// Add accumulates another execution's stats into s (for workload averages).
func (s *Stats) Add(o Stats) {
	s.Scanned += o.Scanned
	s.Matched += o.Matched
	s.ExactMatched += o.ExactMatched
	s.CellsVisited += o.CellsVisited
	s.RangesRefined += o.RangesRefined
	s.ScanRanges += o.ScanRanges
	s.IndexTime += o.IndexTime
	s.ProjectTime += o.ProjectTime
	s.RefineTime += o.RefineTime
	s.ScanTime += o.ScanTime
	s.Total += o.Total
}

// SetWall turns the sum of the Stats of parts that ran concurrently into the
// Stats of the one execution they made up, which took wall time d: the
// counts stay summed, Total becomes d, and when the parts' summed Total
// exceeds d the phase times are scaled down by d/Total, so each keeps its
// share and none exceeds the wall time.
func (s *Stats) SetWall(d time.Duration) {
	if s.Total > d {
		r := float64(d) / float64(s.Total)
		for _, t := range []*time.Duration{&s.IndexTime, &s.ProjectTime, &s.RefineTime, &s.ScanTime} {
			*t = min(time.Duration(float64(*t)*r), d)
		}
	}
	s.Total = d
}

// Index is the contract satisfied by Flood and every baseline: execute a
// hyper-rectangle predicate, feeding matching rows to agg, and report
// instrumentation. SizeBytes covers index metadata only (not the stored
// data), matching the index-size axis of Fig. 8.
//
// ExecuteContext is Execute under the caller's context: execution stops
// cooperatively (at block-group and morsel boundaries) once the context is
// canceled or its deadline passes, returning the partial Stats together
// with ErrCanceled. An already-expired context returns promptly without
// scanning. ExecuteContext(context.Background(), q, agg) behaves exactly
// like Execute.
type Index interface {
	Name() string
	Execute(q Query, agg Aggregator) Stats
	ExecuteContext(ctx context.Context, q Query, agg Aggregator) (Stats, error)
	SizeBytes() int64
}

// ControlIndex is implemented by indexes whose execution can thread an
// externally owned Control, so one cancellation signal and one shared LIMIT
// budget span several executions (the disjoint pieces of an OR, the base
// and delta scans of a composite index). Run has core.Flood.Run's signature:
// workers and cutover choose between the sequential scan and the morsel
// engine, and Run(nil, q, agg, 0, 0) is identical to Execute.
type ControlIndex interface {
	Index
	Run(ctl *Control, q Query, agg Aggregator, workers, cutover int) Stats
}

// BatchIndex is implemented by indexes that can execute many queries in one
// call, sharing a worker pool across them (§8). ExecuteBatch runs
// queries[i] into aggs[i] — len(queries) must equal len(aggs) — and returns
// per-query stats; results are identical to executing the queries one by
// one.
//
// ExecuteBatchContext is ExecuteBatch under the caller's context: one
// cancellation stops every query in the batch, queries not yet started are
// skipped (their Stats stay zero), and the partial per-query stats are
// returned with ErrCanceled.
type BatchIndex interface {
	Index
	ExecuteBatch(queries []Query, aggs []Aggregator) []Stats
	ExecuteBatchContext(ctx context.Context, queries []Query, aggs []Aggregator) ([]Stats, error)
}

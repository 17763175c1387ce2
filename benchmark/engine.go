package main

import (
	"time"

	flood "flood"
)

// engineStats accumulates what engine calls return (query.Stats, the paper's
// IT/ST/TT split) and how long the calls took from outside, both already in
// reference time.
type engineStats struct {
	n    int64
	st   flood.Stats
	call time.Duration
}

func (e *engineStats) add(st flood.Stats, call time.Duration) {
	e.n++
	e.st.Add(st)
	e.call += call
}

// meanTotalNS is the mean of the engine's own end-to-end time per query.
func (e *engineStats) meanTotalNS() float64 {
	return float64(e.st.Total.Nanoseconds()) / float64(max(e.n, 1))
}

// reportCounts sets the per-query counts, which depend only on the layouts
// and the queries and so must repeat exactly.
func (e *engineStats) reportCounts(r *run) {
	n := float64(max(e.n, 1))
	r.count("query.scanned_per_query", float64(e.st.Scanned)/n)
	r.count("query.matched_per_query", float64(e.st.Matched)/n)
	r.count("core.cells_per_query", float64(e.st.CellsVisited)/n)
	r.count("core.ranges_per_query", float64(e.st.ScanRanges)/n)
	r.count("core.refined_per_query", float64(e.st.RangesRefined)/n)
	r.count("query.scan_overhead", e.st.ScanOverhead())
	if e.st.Scanned > 0 {
		r.count("query.exact_frac", float64(e.st.ExactMatched)/float64(e.st.Scanned))
	}
}

// reportTimes sets the per-query times of the engine layers.
func (e *engineStats) reportTimes(r *run) {
	n := float64(max(e.n, 1))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	r.set("flood.call_us", us(e.call))
	r.set("flood.facade_us", us(e.call-e.st.Total))
	r.set("core.project_us", us(e.st.ProjectTime))
	r.set("core.refine_us", us(e.st.RefineTime))
	r.set("query.scan_us", us(e.st.ScanTime))
	r.set("query.ns_per_scanned_row", e.st.TimePerScan())
	if e.call > 0 {
		r.set("core.index_frac", float64(e.st.IndexTime)/float64(e.call))
		r.set("query.scan_frac", float64(e.st.ScanTime)/float64(e.call))
	}
}

// storageMetrics reports the footprint of the stored tables and the index
// metadata over them and, on a traced run, probes how fast the first table's
// column encoding decodes.
func storageMetrics(r *run, indexBytes int64, tables ...*flood.Table) {
	var rows, bytes float64
	for _, t := range tables {
		rows += float64(t.NumRows())
		bytes += float64(t.SizeBytes())
	}
	r.set("colstore.table_bytes_per_row", bytes/rows)
	r.set("flood.index_bytes_per_row", float64(indexBytes)/rows)
	if !r.trace {
		return
	}
	tbl := tables[0]
	rows = float64(tbl.NumRows())
	t0 := now()
	for c := 0; c < tbl.NumCols(); c++ {
		tbl.Raw(c)
	}
	r.set("colstore.decode_mrows_per_s", rows*float64(tbl.NumCols())/1e6/since(t0).Seconds())
}

// olapPhase is a closed loop over raw-column aggregate queries, used by
// olap_flat, olap_sharded and the query part of learn_build. onOp, when set,
// sees every measured operation.
type olapPhase struct {
	idx   flood.Index
	ops   []olapOp
	want  []olapQuery
	onOp  func(op olapOp, d time.Duration)
	stats engineStats
}

func (p *olapPhase) loop(r *run, tr *tracer, warmup, measure time.Duration, windows int) loopResult {
	aggs := [3]flood.Aggregator{flood.NewCount(), flood.NewSum(p.want[0].aggCol), flood.NewMax(p.want[0].aggCol)}
	p.stats = engineStats{}
	return closedLoop(warmup, measure, windows, func(i int, measured bool) (time.Duration, bool) {
		op := p.ops[i%len(p.ops)]
		st, t0, t1, ok := runOlap(p.idx, aggs, op, &p.want[op.query])
		if !ok {
			r.problem("query %d agg %d: wrong answer", op.query, op.agg)
		}
		if measured {
			p.stats.add(st, t1.Sub(t0))
			tr.addEngine(-1, i, t0.wall, t1.wall, st)
			if p.onOp != nil {
				p.onOp(op, t1.Sub(t0))
			}
		}
		return t1.Sub(t0), ok
	})
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	flood "flood"
	"flood/datagen"
	"flood/floodsql"
	"flood/internal/optimizer"
)

// verifyOnce runs every distinct query once with COUNT, checks it, and
// reports the counts that must repeat exactly. after, when set, is called
// after each query with its index.
func verifyOnce(r *run, idx flood.Index, want []olapQuery, after func(i int)) engineStats {
	var es engineStats
	agg := flood.NewCount()
	for i := range want {
		on := idx
		if want[i].on != nil {
			on = want[i].on
		}
		agg.Reset()
		es.add(on.Execute(want[i].q, agg), 0)
		if agg.Result() != want[i].count {
			r.Failed++
			r.problem("query %d: count %d, oracle %d", i, agg.Result(), want[i].count)
		}
		r.Attempted++
		if after != nil {
			after(i)
		}
	}
	es.reportCounts(r)
	return es
}

// measureClosedLoop runs the measured phases of an in-process workload.
// Untraced: warm-up, then runWindows windows. Traced: three quarters of them
// traced, after which afterTraced reports the per-layer sums the loop
// collected, then the last quarter untraced for the tracing overhead and the
// allocation count.
func measureClosedLoop(r *run, measure time.Duration, loop func(tr *tracer, warmup, measure time.Duration, windows int) loopResult, afterTraced func(traced loopResult)) {
	if !r.trace {
		res := loop(nil, r.warmup(), measure, runWindows)
		r.Attempted += res.ops
		r.Failed += res.failed
		r.latencyMetrics(res.lat, res.lat, res.elapsed)
		return
	}
	traced := loop(r.tr, r.warmup(), measure*3/4, runWindows*3/4)
	r.latencyMetrics(traced.lat, traced.lat, traced.elapsed)
	afterTraced(traced)
	untraced := loop(nil, 0, measure/4, runWindows/4)
	r.Attempted += traced.ops + untraced.ops
	r.Failed += traced.failed + untraced.failed
	reportTraceOverhead(r, traced.lat, untraced.lat)
	r.set("flood.allocs_per_query", float64(untraced.mallocs)/float64(max(untraced.ops, 1)))
}

// measureOlap is measureClosedLoop over raw-column aggregate queries. It
// returns the engine's mean own time per query of the traced windows.
func measureOlap(r *run, p *olapPhase, measure time.Duration) (meanTotalNS float64) {
	measureClosedLoop(r, measure, func(tr *tracer, warmup, measure time.Duration, windows int) loopResult {
		return p.loop(r, tr, warmup, measure, windows)
	}, func(loopResult) {
		p.stats.reportTimes(r)
		meanTotalNS = p.stats.meanTotalNS()
	})
	return meanTotalNS
}

func reportTraceOverhead(r *run, traced, untraced *latencies) {
	t, u := traced.summary(), untraced.summary()
	if u.p50 > 0 {
		r.set("trace.overhead_frac", t.p50/u.p50-1)
	}
	r.Samples["untraced_query"] = u.n
}

// --- olap_flat ---

func runOlapFlat(r *run) error {
	ds := datagen.TPCH(r.sc.tpchRows, dataSeed)
	train, test := datagen.SplitTrainTest(datagen.StandardWorkload(ds, 400, dataSeed+1), 0.5, dataSeed+2)
	base := liveHeapMB()
	var idx *flood.Flood
	err := r.timeSetups(r.sc.setups, func() (time.Duration, error) {
		t0 := now()
		var err error
		idx, err = flood.Build(ds.Table, train, r.buildOptions(r.model, nil))
		return since(t0), err
	}, func() { idx = nil })
	if err != nil {
		return err
	}
	r.set("heap_mb", liveHeapMB()-base)
	r.layout("flat", idx.Layout())
	r.Config["rows"] = r.sc.tpchRows
	r.Config["load"] = "closed loop, 1 goroutine"
	storageMetrics(r, idx.SizeBytes(), idx.Table())

	aggCol := ds.ColumnIndex("extendedprice")
	want := bruteForce(ds.Cols, test, aggCol)
	verifyOnce(r, idx, want, nil)
	p := &olapPhase{idx: idx, ops: olapOps(r.seed, len(test)), want: want}
	measured := measureOlap(r, p, r.measure)
	if r.trace {
		r.set("optimizer.predicted_over_measured", idx.PredictedCost()/measured)
		return baselineProbe(r, ds, train, want, idx)
	}
	return nil
}

// baselineProbe times the test queries on the paper's baselines built over
// the same table, against Flood on the same pass structure.
func baselineProbe(r *run, ds *datagen.Dataset, train []flood.Query, want []olapQuery, idx *flood.Flood) error {
	pass := func(ix flood.Index) time.Duration {
		agg := flood.NewCount()
		var total time.Duration
		for range 2 { // the second pass is the one timed
			total = 0
			for i := range want {
				clock.tick(time.Now())
				agg.Reset()
				total += refStats(ix.Execute(want[i].q, agg)).Total
				if agg.Result() != want[i].count {
					r.Failed++
					r.problem("%s query %d: count %d, oracle %d", ix.Name(), i, agg.Result(), want[i].count)
				}
				r.Attempted++
			}
		}
		return total
	}
	floodTime := pass(idx)
	dims := datagen.SelectivityOrder(ds, train, dataSeed)
	best := math.Inf(1)
	for _, kind := range []flood.BaselineKind{flood.FullScan, flood.Clustered, flood.ZOrder, flood.KDTree} {
		ix, err := flood.BuildBaseline(kind, ds.Table, flood.BaselineOptions{Dims: dims})
		if err != nil {
			return fmt.Errorf("baseline %s: %w", kind, err)
		}
		ratio := float64(pass(ix)) / float64(floodTime)
		r.detail("baseline."+string(kind)+"_over_flood", ratio)
		if kind == flood.FullScan {
			r.set("baseline.fullscan_over_flood", ratio)
		}
		best = min(best, ratio)
	}
	r.set("baseline.best_over_flood", best)
	return nil
}

// --- olap_sharded ---

func shardQueries(sh *flood.ShardedIndex) int64 {
	var n int64
	for _, s := range sh.ShardStats() {
		n += s.Queries
	}
	return n
}

func runOlapSharded(r *run) error {
	ds := datagen.Sales(r.sc.salesRows, dataSeed)
	train, test := datagen.SplitTrainTest(datagen.StandardWorkload(ds, 400, dataSeed+1), 0.5, dataSeed+2)
	base := liveHeapMB()
	var sh *flood.ShardedIndex
	err := r.timeSetups(r.sc.setups, func() (time.Duration, error) {
		t0 := now()
		var err error
		sh, err = flood.NewSharded(ds.Table, train, &flood.ShardedOptions{
			Shards: 4, Dim: ds.ColumnIndex("order_id"),
			Build: r.buildOptions(r.model, nil), Adaptive: r.adaptiveConfig(nil),
		})
		return since(t0), err
	}, func() { sh.Close(); sh = nil })
	if err != nil {
		return err
	}
	defer sh.Close()
	r.set("heap_mb", liveHeapMB()-base)
	var tables []*flood.Table
	maxRows := 0
	for i := 0; i < sh.NumShards(); i++ {
		f := sh.Shard(i).Index()
		r.layout(fmt.Sprintf("shard%d", i), f.Layout())
		tables = append(tables, f.Table())
		maxRows = max(maxRows, f.Table().NumRows())
	}
	r.Config["rows"] = r.sc.salesRows
	r.Config["shards"] = sh.NumShards()
	r.Config["splits"] = fmt.Sprint(sh.Splits())
	r.Config["load"] = "closed loop, 1 goroutine"
	storageMetrics(r, sh.SizeBytes(), tables...)
	r.count("shard.skew", float64(maxRows)*float64(sh.NumShards())/float64(r.sc.salesRows))

	aggCol := ds.ColumnIndex("price")
	want := bruteForce(ds.Cols, test, aggCol)
	// Classify each query by how many shards it touches, from ShardStats.
	single := make([]bool, len(want))
	var visited int64
	verifyOnce(r, sh, want, func(i int) {
		v := shardQueries(sh) - visited
		visited += v
		single[i] = v == 1
	})
	nSingle := 0
	for _, s := range single {
		if s {
			nSingle++
		}
	}
	r.count("shard.visited_per_query", float64(visited)/float64(len(want)))
	r.count("shard.single_frac", float64(nSingle)/float64(len(want)))

	singleLat, fanLat := newLatencies(1), newLatencies(1)
	p := &olapPhase{idx: sh, ops: olapOps(r.seed, len(test)), want: want}
	if r.trace {
		p.onOp = func(op olapOp, d time.Duration) {
			if single[op.query] {
				singleLat.add(0, d)
			} else {
				fanLat.add(0, d)
			}
		}
	}
	measureOlap(r, p, r.measure)
	for _, s := range sh.ShardStats() {
		r.invariant(s.Relearns == 0, "shard %d relearned %d times", s.Shard, s.Relearns)
	}
	if !r.trace {
		return nil
	}
	sp50, fp50 := singleLat.summary().p50, fanLat.summary().p50
	r.detail("shard.single_p50_us", sp50)
	r.detail("shard.fanout_p50_us", fp50)
	if sp50 > 0 {
		r.set("shard.fanout_over_single_p50", fp50/sp50)
	}
	// The same single-shard queries on a flat index over the whole table,
	// alternating so both sides see the same machine state.
	flat, err := flood.Build(ds.Table, train, r.buildOptions(r.model, nil))
	if err != nil {
		return err
	}
	r.layout("flat-reference", flat.Layout())
	var onShard, onFlat []int64
	agg := flood.NewCount()
	for range 20 {
		for i := range want {
			if !single[i] {
				continue
			}
			clock.tick(time.Now())
			for _, side := range []struct {
				idx flood.Index
				out *[]int64
			}{{sh, &onShard}, {flat, &onFlat}} {
				agg.Reset()
				t0 := now()
				side.idx.Execute(want[i].q, agg)
				*side.out = append(*side.out, int64(since(t0)))
			}
		}
	}
	slices.Sort(onShard)
	slices.Sort(onFlat)
	if f := quantile(onFlat, 0.5); f > 0 {
		r.set("shard.single_over_flat", quantile(onShard, 0.5)/f)
	}
	return nil
}

// --- lookup_sql ---

const (
	lookupPoint = iota
	lookupRange
	lookupCustomer
	lookupCityCount
)

const lookupLimit = 10

// lookupOp is one SQL statement with the oracle's answer.
type lookupOp struct {
	kind     int
	pred     salesPred
	sql      string
	cols     []int // projected schema columns; nil for the aggregate
	count    int   // rows expected (after LIMIT), or the COUNT(*) value
	checksum int64 // sum of rowSum over the expected rows; unused under LIMIT
}

var salesColumns = []string{"order_id", "customer", "quantity", "city", "price", "date"}

// rowSum folds one row's projected values, as the logical columns hold them,
// into a number; decodeRow computes the same from the program's typed cursor.
func (s *salesData) rowSum(row int32, cols []int) int64 {
	var sum int64
	for _, c := range cols {
		switch c {
		case 0:
			sum += s.orderID[row]
		case 1:
			sum += s.customer[row]
		case 2:
			sum += s.quantity[row]
		case 3:
			sum += int64(len(cityNames[s.city[row]]))
		case 4:
			sum += s.priceCents[row]
		case 5:
			sum += s.day[row]
		}
	}
	return sum
}

func decodeRow(rows *flood.Rows, cols []int) int64 {
	var sum int64
	for j, c := range cols {
		switch c {
		case 0, 1, 2:
			sum += rows.Int64(j)
		case 3:
			sum += int64(len(rows.String(j)))
		case 4:
			sum += int64(math.Round(rows.Float64(j) * 100))
		case 5:
			sum += rows.Time(j).Unix() / 86400
		}
	}
	return sum
}

// drawLookup draws the i-th statement of the 40/30/20/10 mix: every ten
// consecutive statements hold exactly 4, 3, 2 and 1 of the four kinds, so the
// mix, which decides where the median falls, is the same for every seed; the
// seed draws the keys. Keys come from existing rows, so point and customer
// lookups match at least one row.
func drawLookup(s *salesData, rng *rand.Rand, i int) lookupOp {
	n := len(s.orderID)
	op := lookupOp{pred: salesPred{customer: -1, city: -1}}
	switch x := i % 10; {
	case x < 4:
		op.kind = lookupPoint
		k := s.orderID[rng.Intn(n)]
		op.pred.hasOrder, op.pred.orderLo, op.pred.orderHi = true, k, k
		op.cols = []int{0, 1, 2, 3, 4, 5}
		op.sql = "SELECT * FROM sales WHERE " + op.pred.where()
	case x < 7:
		op.kind = lookupRange
		lo := s.orderID[rng.Intn(n)]
		op.pred.hasOrder, op.pred.orderLo, op.pred.orderHi = true, lo, lo+299
		op.cols = []int{0, 4, 5}
		op.sql = fmt.Sprintf("SELECT order_id, price, date FROM sales WHERE %s LIMIT %d", op.pred.where(), lookupLimit)
	case x < 9:
		op.kind = lookupCustomer
		row := rng.Intn(n)
		for s.customer[row] < 16 { // the heaviest customers hold thousands of rows a week
			row = rng.Intn(n)
		}
		// One customer's week inside a 0.2% window of order ids. Without
		// the window any layout that serves the point lookups scans a
		// ninth of the table here, and the scan kernel would dominate a
		// workload meant to show everything but the scan.
		op.pred.customer = s.customer[row]
		op.pred.hasDay, op.pred.dayLo, op.pred.dayHi = true, s.day[row]-3, s.day[row]+3
		op.pred.hasOrder, op.pred.orderLo, op.pred.orderHi = true, s.orderID[row]-s.maxOrder/1000, s.orderID[row]+s.maxOrder/1000
		op.cols = []int{0, 2, 4}
		op.sql = "SELECT order_id, quantity, price FROM sales WHERE " + op.pred.where()
	default:
		op.kind = lookupCityCount
		lo := s.orderID[rng.Intn(n)]
		op.pred.hasOrder, op.pred.orderLo, op.pred.orderHi = true, lo, lo+2999
		op.pred.city = rng.Intn(len(cityNames))
		op.sql = "SELECT COUNT(*) FROM sales WHERE " + op.pred.where()
	}
	return op
}

// answer fills the oracle's side of op.
func (s *salesData) answer(op *lookupOp) {
	rows := s.rows(op.pred)
	op.count = len(rows)
	if op.kind == lookupRange {
		op.count = min(op.count, lookupLimit)
		return
	}
	for _, row := range rows {
		op.checksum += s.rowSum(row, op.cols)
	}
}

// lookupTimes splits one operation at the layer boundaries.
type lookupTimes struct {
	start, parsed, executed, decoded instant
	stats                            flood.Stats
	rows                             int
}

// runLookup executes one statement the way a library caller would: SQL text
// in, every row decoded through the typed cursor.
func runLookup(ctx context.Context, a *flood.AdaptiveIndex, schema *flood.Schema, op *lookupOp) (lookupTimes, error) {
	var lt lookupTimes
	lt.start = now()
	st, err := floodsql.ParseTyped(op.sql, schema)
	lt.parsed = now()
	if err != nil {
		return lt, err
	}
	if op.cols == nil {
		v, stats, err := st.RunContext(ctx, a)
		lt.executed = now()
		lt.decoded = lt.executed
		lt.stats = refStats(stats)
		if err == nil && v != int64(op.count) {
			err = fmt.Errorf("got %d, oracle %d", v, op.count)
		}
		return lt, err
	}
	rows, stats, err := st.SelectContext(ctx, a)
	lt.executed = now()
	lt.stats = refStats(stats)
	if err != nil {
		return lt, err
	}
	var sum int64
	for rows.Next() {
		lt.rows++
		if op.kind == lookupRange {
			if k := rows.Int64(0); k < op.pred.orderLo || k > op.pred.orderHi {
				err = fmt.Errorf("row with order_id %d outside the range", k)
			}
		}
		sum += decodeRow(rows, op.cols)
	}
	rows.Close()
	lt.decoded = now()
	switch {
	case err != nil:
	case lt.rows != op.count:
		err = fmt.Errorf("%d rows, oracle %d", lt.rows, op.count)
	case op.kind != lookupRange && sum != op.checksum:
		err = fmt.Errorf("row checksum %d, oracle %d", sum, op.checksum)
	}
	return lt, err
}

// salesStore builds the typed sales table and an adaptive index over it, the
// store lookup_sql queries directly and the serving workloads put a server
// on. The returned duration is the time inside the system's constructors.
func salesStore(r *run, s *salesData) (*flood.Schema, *flood.Flood, time.Duration, error) {
	t0 := now()
	schema, tbl, err := s.table()
	if err != nil {
		return nil, nil, 0, err
	}
	tableTime := since(t0)
	// Training queries need the fitted schema; drawing them is the
	// harness's work, not the system's.
	train := salesTraining(s, schema)
	t0 = now()
	idx, err := flood.Build(tbl, train, r.buildOptions(r.model, schema))
	return schema, idx, tableTime + since(t0), err
}

func runLookupSQL(r *run) error {
	s := newSalesData(r.sc.salesRows)
	base := liveHeapMB()
	var schema *flood.Schema
	var a *flood.AdaptiveIndex
	err := r.timeSetups(r.sc.setups, func() (time.Duration, error) {
		sch, idx, d, err := salesStore(r, s)
		if err != nil {
			return 0, err
		}
		t0 := now()
		schema, a = sch, flood.NewAdaptiveIndex(idx, r.adaptiveConfig(sch))
		return d + since(t0), nil
	}, func() { a.Close(); a = nil })
	if err != nil {
		return err
	}
	defer a.Close()
	r.set("heap_mb", liveHeapMB()-base)
	r.layout("sales", a.Layout())
	r.Config["rows"] = r.sc.salesRows
	r.Config["load"] = "closed loop, 1 goroutine"
	r.Config["mix"] = "40% point, 30% 300-key range LIMIT 10, 20% customer+7 days+0.2% of order ids, 10% COUNT(*) city+3000 keys"
	storageMetrics(r, a.SizeBytes(), a.Index().Table())

	rng := rand.New(rand.NewSource(r.seed))
	ops := make([]lookupOp, 2000)
	for i := range ops {
		ops[i] = drawLookup(s, rng, i)
		s.answer(&ops[i])
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	ctx := context.Background()
	// One pass over the distinct statements: full check and exact counts.
	var exact engineStats
	for i := range ops {
		lt, err := runLookup(ctx, a, schema, &ops[i])
		exact.add(lt.stats, 0)
		r.Attempted++
		if err != nil {
			r.Failed++
			r.problem("%s: %v", ops[i].sql, err)
		}
	}
	exact.reportCounts(r)

	var es engineStats
	var parse, decode, total time.Duration
	var selects, rowsOut int64
	loop := func(tr *tracer, warmup, measure time.Duration, windows int) loopResult {
		es, parse, decode, total, selects, rowsOut = engineStats{}, 0, 0, 0, 0, 0
		return closedLoop(warmup, measure, windows, func(i int, measured bool) (time.Duration, bool) {
			op := &ops[i%len(ops)]
			lt, err := runLookup(ctx, a, schema, op)
			if err != nil {
				r.problem("%s: %v", op.sql, err)
			}
			if measured {
				es.add(lt.stats, lt.executed.Sub(lt.parsed))
				parse += lt.parsed.Sub(lt.start)
				decode += lt.decoded.Sub(lt.executed)
				total += lt.decoded.Sub(lt.start)
				if op.cols != nil {
					selects++
					rowsOut += int64(lt.rows)
				}
				if tr != nil {
					tr.add("floodsql.parse", -1, i, lt.start.wall, lt.parsed.wall)
					tr.addEngine(-1, i, lt.parsed.wall, lt.executed.wall, lt.stats)
					tr.add("flood.rows", -1, i, lt.executed.wall, lt.decoded.wall)
				}
			}
			return lt.decoded.Sub(lt.start), err == nil
		})
	}
	measureClosedLoop(r, r.measure, loop, func(traced loopResult) {
		// These shares are of the whole operation; the engine shares
		// reportTimes sets are of the engine call.
		es.reportTimes(r)
		r.set("floodsql.parse_frac", float64(parse)/float64(total))
		r.set("flood.rows_decode_frac", float64(decode)/float64(total))
		r.set("flood.rows_per_select", float64(rowsOut)/float64(max(selects, 1)))
		r.detail("floodsql.parse_us", float64(parse.Microseconds())/float64(traced.ops))
		r.detail("flood.rows_decode_us", float64(decode.Microseconds())/float64(traced.ops))
		r.set("optimizer.predicted_over_measured", a.Index().PredictedCost()/es.meanTotalNS())
	})
	st := a.Stats()
	r.invariant(st.Relearns == 0, "adaptive index relearned %d times", st.Relearns)
	r.count("adaptive.relearns", float64(st.Relearns))
	return nil
}

// --- learn_build ---

// learnSet is one dataset of learn_build.
type learnSet struct {
	ds          *datagen.Dataset
	train, test []flood.Query
	want        []olapQuery
	idx         *flood.Flood
	predicted   float64 // the search's predicted mean query time, ns
}

func runLearnBuild(r *run) error {
	var sets []*learnSet
	for _, name := range datagen.DatasetNames()[:r.sc.learnSets] {
		ds := datagen.ByName(name, r.sc.learnRows, dataSeed)
		train, test := datagen.SplitTrainTest(datagen.StandardWorkload(ds, 200, dataSeed+1), 0.5, dataSeed+2)
		sets = append(sets, &learnSet{ds: ds, train: train, test: test, want: bruteForce(ds.Cols, test, 0)})
	}
	// Set-up is the subject here: per dataset a live calibration, a layout
	// search and a build. The search uses the frozen model, so the layouts,
	// and with them the query numbers, repeat; what the live model would
	// have chosen is a per-layer ratio on the traced run. One round is four
	// set-ups already, at 6 s, so setup_s is their sum and is not repeated.
	base := liveHeapMB()
	var calibrate, search, build time.Duration
	live := make([]*flood.CostModel, len(sets))
	err := r.timeSetups(1, func() (time.Duration, error) {
		calibrate, search, build = 0, 0, 0
		for i, ls := range sets {
			t0 := now()
			m, err := flood.Calibrate(ls.ds.Table, ls.train, &flood.Options{Seed: buildSeed})
			if err != nil {
				return 0, err
			}
			t1 := now()
			o := r.buildOptions(r.model, nil)
			res, err := optimizer.FindOptimalLayout(ls.ds.Table, ls.train, r.model, optimizer.Config{
				QuerySampleSize: o.QuerySampleSize, GDSteps: o.GDSteps, Seed: o.Seed,
			})
			if err != nil {
				return 0, err
			}
			t2 := now()
			ls.idx, err = flood.BuildWithLayout(ls.ds.Table, res.Layout, o)
			if err != nil {
				return 0, err
			}
			ls.predicted = res.PredictedCost
			calibrate += t1.Sub(t0)
			search += t2.Sub(t1)
			build += since(t2)
			live[i] = m
		}
		return calibrate + search + build, nil
	}, func() {
		for _, ls := range sets {
			ls.idx = nil
		}
	})
	if err != nil {
		return err
	}
	r.set("heap_mb", liveHeapMB()-base)
	r.Config["rows"] = r.sc.learnRows
	r.Config["datasets"] = datagen.DatasetNames()[:r.sc.learnSets]
	r.Config["load"] = "closed loop, 1 goroutine, held-out queries round-robin over the four indexes"
	var tables []*flood.Table
	var indexBytes int64
	for _, ls := range sets {
		r.layout(ls.ds.Name, ls.idx.Layout())
		tables = append(tables, ls.idx.Table())
		indexBytes += ls.idx.SizeBytes()
	}
	rows := float64(r.sc.learnRows * len(sets))
	storageMetrics(r, indexBytes, tables...)
	all := float64(calibrate + search + build)
	r.set("costmodel.calibrate_frac", float64(calibrate)/all)
	r.set("optimizer.search_frac", float64(search)/all)
	r.set("core.build_frac", float64(build)/all)
	r.set("core.build_mrows_per_s", rows/1e6/build.Seconds())
	r.detail("learn_s", (calibrate + search).Seconds())
	r.detail("load_s", build.Seconds())

	// The query phase interleaves the four indexes: each held-out query
	// carries the index of its own dataset.
	var want []olapQuery
	for j := range sets[0].want {
		for _, ls := range sets {
			q := ls.want[j]
			q.on = ls.idx
			want = append(want, q)
		}
	}
	frozenScanned := verifyOnce(r, nil, want, nil).st.Scanned
	p := &olapPhase{ops: olapOps(r.seed, len(want)), want: want}
	// Half the time goes to queries: the constructors above are this
	// workload's measured work.
	measured := measureOlap(r, p, r.measure/2)
	if !r.trace {
		return nil
	}
	// How well the frozen model predicted what was measured, and what the
	// live model would have built.
	var predicted float64
	var liveScanned int64
	agg := flood.NewCount()
	for i, ls := range sets {
		predicted += ls.predicted / float64(len(sets))
		idx, err := flood.Build(ls.ds.Table, ls.train, r.buildOptions(live[i], nil))
		if err != nil {
			return err
		}
		r.layout(ls.ds.Name+"-live", idx.Layout())
		for j := range ls.want {
			agg.Reset()
			liveScanned += idx.Execute(ls.want[j].q, agg).Scanned
		}
	}
	r.set("optimizer.predicted_over_measured", predicted/measured)
	r.set("optimizer.live_over_frozen_scanned", float64(liveScanned)/float64(max(frozenScanned, 1)))
	return nil
}

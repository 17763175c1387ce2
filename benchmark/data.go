package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	flood "flood"
	"flood/datagen"
)

// The data, the training queries and the model seeds are part of the
// benchmark's definition, not of a run: with the frozen cost model they fix
// every learned layout, so two runs differ only in the operations --seed
// draws. A seed-dependent table would make the spread across seeds measure
// which layout the optimizer happened to pick.
const (
	dataSeed  = 1
	buildSeed = 7
)

// scale holds the row counts. The full sizes are the largest at which every
// run, its set-up repeated for setup_s, fits the driver's time cap on two
// cores; quick is for the package test.
type scale struct {
	tpchRows, salesRows, learnRows int
	learnSets                      int // datasets of learn_build
	setups                         int // constructor repetitions behind setup_s
	// The layout search's effort. At the optimizer's defaults (20 gradient
	// steps over 50 sampled queries) one search takes 5 s here and four
	// shards 13 s, which the time cap has no room for; 5 steps over 25
	// queries run the same code in about 1 s and were measured to find
	// layouts that scan within 10% of the full search's.
	gdSteps, querySample int
}

var (
	fullScale  = scale{tpchRows: 2_000_000, salesRows: 500_000, learnRows: 100_000, learnSets: 4, setups: 3, gdSteps: 5, querySample: 25}
	quickScale = scale{tpchRows: 50_000, salesRows: 50_000, learnRows: 20_000, learnSets: 1, setups: 1, gdSteps: 2, querySample: 10}
)

// buildOptions are the learned-index options every constructor gets: the
// given cost model (the frozen one, but for learn_build's live comparison),
// a fixed seed and the scale's search effort.
func (r *run) buildOptions(m *flood.CostModel, schema *flood.Schema) *flood.Options {
	return &flood.Options{CostModel: m, Seed: buildSeed, GDSteps: r.sc.gdSteps, QuerySampleSize: r.sc.querySample, Schema: schema}
}

// adaptiveConfig keeps the timing-driven drift monitor from ever firing, so
// maintenance happens only where a workload forces it.
func (r *run) adaptiveConfig(schema *flood.Schema) *flood.AdaptiveConfig {
	return &flood.AdaptiveConfig{DriftFactor: 1e12, Build: r.buildOptions(r.model, schema), Seed: buildSeed}
}

// olapQuery is one raw-column query with its brute-force answers.
type olapQuery struct {
	q      flood.Query
	count  int64
	sum    int64 // over aggCol
	max    int64 // over aggCol; meaningless when count == 0
	aggCol int
	on     flood.Index // the index this query belongs to, when a phase spans several
}

// bruteForce answers every query by scanning the raw columns the generator
// produced, never the program's table.
func bruteForce(cols [][]int64, queries []flood.Query, aggCol int) []olapQuery {
	out := make([]olapQuery, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 2 {
				out[i] = bruteForceOne(cols, queries[i], aggCol)
			}
		}(w)
	}
	wg.Wait()
	return out
}

func bruteForceOne(cols [][]int64, q flood.Query, aggCol int) olapQuery {
	res := olapQuery{q: q, aggCol: aggCol}
	dims := q.FilteredDims()
	n := len(cols[0])
	// Filter column by column so each pass is a tight loop.
	sel := make([]int32, 0, n/64)
	if len(dims) == 0 {
		for r := 0; r < n; r++ {
			sel = append(sel, int32(r))
		}
	} else {
		c, rg := cols[dims[0]], q.Ranges[dims[0]]
		for r, v := range c {
			if v >= rg.Min && v <= rg.Max {
				sel = append(sel, int32(r))
			}
		}
		for _, d := range dims[1:] {
			c, rg := cols[d], q.Ranges[d]
			kept := sel[:0]
			for _, r := range sel {
				if v := c[r]; v >= rg.Min && v <= rg.Max {
					kept = append(kept, r)
				}
			}
			sel = kept
		}
	}
	res.count = int64(len(sel))
	for i, r := range sel {
		v := cols[aggCol][r]
		res.sum += v
		if i == 0 || v > res.max {
			res.max = v
		}
	}
	return res
}

// olapOp is one closed-loop operation: a query and which aggregate to ask.
type olapOp struct {
	query int // index into the test queries
	agg   int // 0 COUNT, 1 SUM, 2 MAX
}

// olapOps is the seeded operation sequence: every test query with every
// aggregate, in shuffled order. The set of operations is the same for every
// seed, so a median over it does not depend on which aggregates a seed
// happened to pair with the expensive queries; the seed decides the order.
func olapOps(seed int64, nQueries int) []olapOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]olapOp, 0, 3*nQueries)
	for q := 0; q < nQueries; q++ {
		for agg := 0; agg < 3; agg++ {
			ops = append(ops, olapOp{query: q, agg: agg})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runOlap executes one operation against any engine and checks the answer.
func runOlap(idx flood.Index, aggs [3]flood.Aggregator, op olapOp, want *olapQuery) (flood.Stats, instant, instant, bool) {
	agg := aggs[op.agg]
	agg.Reset()
	if want.on != nil {
		idx = want.on
	}
	t0 := now()
	st := refStats(idx.Execute(want.q, agg))
	t1 := now()
	ok := st.Matched == want.count
	switch {
	case op.agg == 0:
		ok = ok && agg.Result() == want.count
	case op.agg == 1:
		ok = ok && agg.Result() == want.sum
	case want.count > 0:
		ok = ok && agg.Result() == want.max
	}
	return st, t0, t1, ok
}

// --- typed sales table ---

var cityNames = []string{
	"amsterdam", "austin", "berlin", "boston", "chicago", "denver", "dublin", "lisbon",
	"london", "madrid", "nyc", "oslo", "paris", "prague", "seattle", "vienna",
}

// salesDay0 is the date of day offset 0, in days since the Unix epoch
// (2021-01-01), which is the tick of a Time column with a one-day unit.
const salesDay0 = 18628

// salesData is the typed sales table's source: the logical columns the
// harness generated. The oracle answers from these, never from the table.
type salesData struct {
	orderID, customer, quantity []int64
	city                        []int32 // index into cityNames
	priceCents                  []int64
	day                         []int64 // days since the Unix epoch

	byOrder     []int32 // rows sorted by order_id
	orderSorted []int64
	pricePrefix []int64 // prefix sums of priceCents in byOrder order
	byCustomer  map[int64][]int32
	maxOrder    int64
}

func newSalesData(rows int) *salesData {
	ds := datagen.Sales(rows, dataSeed)
	s := &salesData{
		orderID:    ds.Cols[0],
		customer:   ds.Cols[1],
		quantity:   ds.Cols[3],
		priceCents: ds.Cols[4],
		city:       make([]int32, rows),
		day:        make([]int64, rows),
	}
	for i := range s.city {
		s.city[i] = int32(ds.Cols[2][i] % int64(len(cityNames))) // product code folded to a city
		s.day[i] = salesDay0 + ds.Cols[5][i]
	}
	// The oracle's access paths.
	n := rows
	s.byOrder = make([]int32, n)
	for i := range s.byOrder {
		s.byOrder[i] = int32(i)
	}
	sort.SliceStable(s.byOrder, func(a, b int) bool { return s.orderID[s.byOrder[a]] < s.orderID[s.byOrder[b]] })
	s.orderSorted = make([]int64, n)
	s.pricePrefix = make([]int64, n+1)
	for i, r := range s.byOrder {
		s.orderSorted[i] = s.orderID[r]
		s.pricePrefix[i+1] = s.pricePrefix[i] + s.priceCents[r]
	}
	s.maxOrder = s.orderSorted[n-1]
	s.byCustomer = make(map[int64][]int32)
	for i, c := range s.customer {
		s.byCustomer[c] = append(s.byCustomer[c], int32(i))
	}
	return s
}

// table loads the logical columns through the typed TableBuilder, which fits
// the schema's dictionary, decimal scaler and time codec.
func (s *salesData) table() (*flood.Schema, *flood.Table, error) {
	schema := flood.NewSchema().Int64("order_id").Int64("customer").Int64("quantity").
		String("city").Float64("price", 2).TimeUnit("date", 24*time.Hour)
	n := len(s.orderID)
	city := make([]string, n)
	price := make([]float64, n)
	date := make([]time.Time, n)
	for i := 0; i < n; i++ {
		city[i] = cityNames[s.city[i]]
		price[i] = float64(s.priceCents[i]) / 100
		date[i] = time.Unix(s.day[i]*86400, 0).UTC()
	}
	b := schema.NewTableBuilder()
	for _, err := range []error{
		b.SetInt64Column("order_id", s.orderID),
		b.SetInt64Column("customer", s.customer),
		b.SetInt64Column("quantity", s.quantity),
		b.SetStringColumn("city", city),
		b.SetFloat64Column("price", price),
		b.SetTimeColumn("date", date),
	} {
		if err != nil {
			return nil, nil, err
		}
	}
	tbl, err := b.Build()
	return schema, tbl, err
}

// salesPred is a logical predicate over the typed table; SQL text and the
// oracle's answer both derive from it.
type salesPred struct {
	hasOrder         bool
	orderLo, orderHi int64
	customer         int64 // -1: not filtered
	hasDay           bool
	dayLo, dayHi     int64
	city             int // -1: not filtered
}

func (p salesPred) where() string {
	var conds []string
	if p.hasOrder {
		if p.orderLo == p.orderHi {
			conds = append(conds, fmt.Sprintf("order_id = %d", p.orderLo))
		} else {
			conds = append(conds, fmt.Sprintf("order_id BETWEEN %d AND %d", p.orderLo, p.orderHi))
		}
	}
	if p.customer >= 0 {
		conds = append(conds, fmt.Sprintf("customer = %d", p.customer))
	}
	if p.hasDay {
		conds = append(conds, fmt.Sprintf("date BETWEEN %d AND %d", p.dayLo, p.dayHi))
	}
	if p.city >= 0 {
		conds = append(conds, fmt.Sprintf("city = '%s'", cityNames[p.city]))
	}
	out := ""
	for i, c := range conds {
		if i > 0 {
			out += " AND "
		}
		out += c
	}
	return out
}

// query is the predicate in the physical domain, for training the layout.
func (p salesPred) query(schema *flood.Schema) flood.Query {
	t := schema.Where()
	if p.hasOrder {
		t = t.WithIntRange("order_id", p.orderLo, p.orderHi)
	}
	if p.customer >= 0 {
		t = t.WithIntEquals("customer", p.customer)
	}
	if p.hasDay {
		t = t.WithRange("date", p.dayLo, p.dayHi)
	}
	if p.city >= 0 {
		t = t.WithStringEquals("city", cityNames[p.city])
	}
	return t.Query()
}

// orderSpan returns the positions in byOrder whose key lies in [lo, hi].
func (s *salesData) orderSpan(lo, hi int64) (int, int) {
	a, _ := slices.BinarySearch(s.orderSorted, lo)
	b, _ := slices.BinarySearch(s.orderSorted, hi+1)
	return a, b
}

// rows answers a predicate from the logical columns.
func (s *salesData) rows(p salesPred) []int32 {
	var cand []int32
	switch {
	case p.hasOrder:
		a, b := s.orderSpan(p.orderLo, p.orderHi)
		cand = s.byOrder[a:b]
	case p.customer >= 0:
		cand = s.byCustomer[p.customer]
	default:
		cand = s.byOrder
	}
	var out []int32
	for _, r := range cand {
		if p.customer >= 0 && s.customer[r] != p.customer {
			continue
		}
		if p.hasDay && (s.day[r] < p.dayLo || s.day[r] > p.dayHi) {
			continue
		}
		if p.city >= 0 && int(s.city[r]) != p.city {
			continue
		}
		out = append(out, r)
	}
	return out
}

// rangeAggregate answers COUNT(*) and SUM(price) over an order_id range in
// O(log n), for the serving workloads' 65,536 statements.
func (s *salesData) rangeAggregate(lo, hi int64) (count, sumCents int64) {
	a, b := s.orderSpan(lo, hi)
	return int64(b - a), s.pricePrefix[b] - s.pricePrefix[a]
}

// salesTraining draws the fixed training workload: the four statement
// shapes of lookup_sql plus the serving tier's 0.1% order_id ranges.
func salesTraining(s *salesData, schema *flood.Schema) []flood.Query {
	rng := rand.New(rand.NewSource(dataSeed + 2))
	var qs []flood.Query
	for i := 0; i < 200; i++ {
		qs = append(qs, drawLookup(s, rng, i).pred.query(schema))
	}
	width := s.maxOrder / 1000
	for i := 0; i < 50; i++ {
		lo := rng.Int63n(s.maxOrder - width)
		qs = append(qs, salesPred{hasOrder: true, orderLo: lo, orderHi: lo + width, customer: -1, city: -1}.query(schema))
	}
	return qs
}

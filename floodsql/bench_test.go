package floodsql

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	flood "flood"
	"flood/datagen"
)

// lookupFixture is the repository benchmark's lookup_sql store at full
// scale: the 500k-row typed sales table under the layout the benchmark's
// search settles on (two city cells sorted by order_id), behind an
// AdaptiveIndex. Built once per test binary.
var lookupFixture struct {
	once    sync.Once
	schema  *flood.Schema
	idx     *flood.AdaptiveIndex
	orderID []int64
}

var lookupCities = []string{
	"amsterdam", "austin", "berlin", "boston", "chicago", "denver", "dublin", "lisbon",
	"london", "madrid", "nyc", "oslo", "paris", "prague", "seattle", "vienna",
}

func lookupSetup(tb testing.TB) (*flood.Schema, *flood.AdaptiveIndex, []int64) {
	tb.Helper()
	f := &lookupFixture
	f.once.Do(func() {
		const n = 500_000
		ds := datagen.Sales(n, 1501)
		city := make([]string, n)
		price := make([]float64, n)
		date := make([]time.Time, n)
		for i := 0; i < n; i++ {
			city[i] = lookupCities[ds.Cols[2][i]%int64(len(lookupCities))]
			price[i] = float64(ds.Cols[4][i]) / 100
			date[i] = time.Unix((18628+ds.Cols[5][i])*86400, 0).UTC()
		}
		f.schema = flood.NewSchema().Int64("order_id").Int64("customer").Int64("quantity").
			String("city").Float64("price", 2).TimeUnit("date", 24*time.Hour)
		b := f.schema.NewTableBuilder()
		for _, err := range []error{
			b.SetInt64Column("order_id", ds.Cols[0]),
			b.SetInt64Column("customer", ds.Cols[1]),
			b.SetInt64Column("quantity", ds.Cols[3]),
			b.SetStringColumn("city", city),
			b.SetFloat64Column("price", price),
			b.SetTimeColumn("date", date),
		} {
			if err != nil {
				panic(err)
			}
		}
		tbl, err := b.Build()
		if err != nil {
			panic(err)
		}
		idx, err := flood.BuildWithLayout(tbl, flood.Layout{
			GridDims: []int{3}, GridCols: []int{2}, SortDim: 0, Flatten: true,
		}, &flood.Options{Schema: f.schema})
		if err != nil {
			panic(err)
		}
		f.idx = flood.NewAdaptiveIndex(idx, &flood.AdaptiveConfig{DriftFactor: 1e12})
		f.orderID = ds.Cols[0]
	})
	return f.schema, f.idx, f.orderID
}

// lookupShapes returns lookup_sql's four statement shapes keyed on one
// existing order id.
func lookupShapes(k int64) map[string]string {
	return map[string]string{
		"point":    fmt.Sprintf("SELECT * FROM sales WHERE order_id = %d", k),
		"range":    fmt.Sprintf("SELECT order_id, price, date FROM sales WHERE order_id BETWEEN %d AND %d LIMIT 10", k, k+299),
		"customer": fmt.Sprintf("SELECT order_id, quantity, price FROM sales WHERE order_id BETWEEN %d AND %d AND customer = 17 AND date BETWEEN 18900 AND 18906", k-1500, k+1500),
		"city":     fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE order_id BETWEEN %d AND %d AND city = 'lisbon'", k, k+2999),
	}
}

// BenchmarkLookupPoint is one point lookup the way a library caller runs it:
// SQL text in, parse, SelectContext, decode the one row through the typed
// cursor. Recorded in BENCH_scan.json by `make bench`.
func BenchmarkLookupPoint(b *testing.B) {
	schema, idx, orderID := lookupSetup(b)
	sqls := make([]string, 1024)
	for i := range sqls {
		sqls[i] = lookupShapes(orderID[(i*7919)%len(orderID)])["point"]
	}
	ctx := context.Background()
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ParseTyped(sqls[i%len(sqls)], schema)
		if err != nil {
			b.Fatal(err)
		}
		rows, _, err := st.SelectContext(ctx, idx)
		if err != nil {
			b.Fatal(err)
		}
		if !rows.Next() {
			b.Fatal("point lookup matched nothing")
		}
		sink += rows.Int64(0) + rows.Int64(1) + rows.Int64(2) + int64(len(rows.String(3))) +
			int64(rows.Float64(4)) + rows.Time(5).Unix()
		rows.Close()
	}
	lookupSink = sink
}

var lookupSink int64

// BenchmarkParseLookup is ParseTyped alone on lookup_sql's four statement
// shapes. Recorded in BENCH_scan.json by `make bench`.
func BenchmarkParseLookup(b *testing.B) {
	schema, _, orderID := lookupSetup(b)
	shapes := lookupShapes(orderID[len(orderID)/2])
	for _, name := range []string{"point", "range", "customer", "city"} {
		sql := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := ParseTyped(sql, schema)
				if err != nil {
					b.Fatal(err)
				}
				lookupSink += int64(len(st.Disjuncts))
			}
		})
	}
}

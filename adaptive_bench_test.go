package flood

import (
	"fmt"
	"testing"

	"flood/internal/dataset"
)

// BenchmarkAdaptiveQueryPendingLog measures what an unsealed insert log adds
// to a selective query: a 0.1% range on the sort dimension of a 500k-row
// index, with no pending rows and with 1,000. Fewer than logViewStep rows are
// never sealed, so every query compresses them into a fresh table before it
// scans them; that is the per-read cost serve_mixed's writes leave behind.
func BenchmarkAdaptiveQueryPendingLog(b *testing.B) {
	const n = 500_000
	ds := dataset.Sales(n, 1401)
	// The layout the repository benchmark's frozen model picks for its sales
	// table, so the base query costs what serve_read's engine call does.
	base, err := BuildWithLayout(ds.Table, Layout{
		GridDims: []int{3}, GridCols: []int{2}, SortDim: 0, Flatten: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// order_id is about 3 × the row number, so a width of 3n/1000 is 0.1%.
	q := NewQuery(ds.Table.NumCols()).WithRange(0, 3*n/2, 3*n/2+3*n/1000)
	for _, pending := range []int{0, 1000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			a := NewAdaptiveIndex(base, &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1})
			defer a.Close()
			row := make([]int64, ds.Table.NumCols())
			for i := 0; i < pending; i++ {
				src := (i * 7919) % n
				for c := range row {
					row[c] = ds.Cols[c][src]
				}
				if err := a.Insert(row); err != nil {
					b.Fatal(err)
				}
			}
			cnt := NewCount()
			var scanned int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cnt.Reset()
				scanned += a.Execute(q, cnt).Scanned
			}
			b.StopTimer()
			if cnt.Result() == 0 {
				b.Fatal("benchmark query matched nothing")
			}
			b.ReportMetric(float64(scanned)/float64(b.N), "scanned/op")
		})
	}
}

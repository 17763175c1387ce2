package flood

import (
	"fmt"
	"testing"

	"flood/internal/dataset"
)

// BenchmarkAdaptiveQueryPendingLog measures what a pending insert log adds
// to a selective query: a 0.1% range on the sort dimension of a 500k-row
// index, with no pending rows, with one short of a block, and with 1,000 and
// 5,000. The writer seals the log's whole blocks as it goes, so a query scans
// the sealed table and compresses at most the last partial block (under 128
// rows) for itself; that is the per-read cost serve_mixed's writes leave
// behind.
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
	for _, pending := range []int{0, 127, 1000, 5000} {
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

// BenchmarkAdaptiveInsert measures one Insert into the log of a 100k-row
// index with merges off: the writer lock, the copy-on-write column headers
// and, every 128th row, sealing a block. The index is replaced (outside the
// timer) every 64K rows so the log's memory stays bounded at any b.N.
func BenchmarkAdaptiveInsert(b *testing.B) {
	const n, perIndex = 100_000, 1 << 16
	ds := dataset.Sales(n, 1402)
	base, err := BuildWithLayout(ds.Table, Layout{
		GridDims: []int{3}, GridCols: []int{2}, SortDim: 0, Flatten: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]int64, 1024)
	for i := range rows {
		rows[i] = make([]int64, ds.Table.NumCols())
		for c := range rows[i] {
			rows[i][c] = ds.Cols[c][(i*7919)%n]
		}
	}
	var a *AdaptiveIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perIndex == 0 {
			b.StopTimer()
			if a != nil {
				a.Close()
			}
			a = NewAdaptiveIndex(base, &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1})
			b.StartTimer()
		}
		if err := a.Insert(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a.Close()
}

package flood

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// dictEqBenchState holds the paired 1M-row indexes for the dictionary
// benchmarks: one built with bitmap indexes (the default), one with them
// disabled so the same predicate runs as a residual decode-and-compare. city
// has 8 values (the equality benchmark), zone 40 (the range benchmark).
var dictEqBenchState struct {
	once    sync.Once
	schema  *Schema
	bitmap  *Flood
	residue *Flood
}

func dictEqBenchSetup(b *testing.B) {
	b.Helper()
	s := &dictEqBenchState
	s.once.Do(func() {
		const n = 1_000_000
		rng := rand.New(rand.NewSource(2024))
		cities := []string{"atlanta", "boston", "chicago", "denver", "houston", "miami", "nyc", "seattle"}
		ts := make([]int64, n)
		fare := make([]float64, n)
		city := make([]string, n)
		zone := make([]string, n)
		for i := 0; i < n; i++ {
			ts[i] = rng.Int63n(1_000_000)
			fare[i] = float64(rng.Intn(10_000)) / 100
			city[i] = cities[rng.Intn(len(cities))]
		}
		for i := range zone { // drawn after the rest so their values stay as recorded
			zone[i] = fmt.Sprintf("zone%02d", rng.Intn(40))
		}
		s.schema = NewSchema().Int64("ts").Float64("fare", 2).String("city").String("zone")
		tb := s.schema.NewTableBuilder()
		if err := tb.SetInt64Column("ts", ts); err != nil {
			panic(err)
		}
		if err := tb.SetFloat64Column("fare", fare); err != nil {
			panic(err)
		}
		if err := tb.SetStringColumn("city", city); err != nil {
			panic(err)
		}
		if err := tb.SetStringColumn("zone", zone); err != nil {
			panic(err)
		}
		tbl, err := tb.Build()
		if err != nil {
			panic(err)
		}
		// The dictionary columns stay out of the grid so their predicates are
		// a residual filter on every scanned block — the case the bitmap
		// index accelerates.
		layout := Layout{GridDims: []int{0}, GridCols: []int{64}, SortDim: 1, Flatten: true}
		if s.bitmap, err = BuildWithLayout(tbl, layout, &Options{Schema: s.schema}); err != nil {
			panic(err)
		}
		if s.residue, err = BuildWithLayout(tbl, layout, &Options{Schema: s.schema}); err != nil {
			panic(err)
		}
		// Dropping the residual index's bitmap indexes leaves its scan to
		// decode and compare the dictionary columns.
		s.residue.idx.Table().EnableBitmapIndexes(0)
	})
}

// BenchmarkDictEqScan1M measures a dictionary-equality predicate over 1M rows
// (city = 'nyc' AND a 10% ts band) with the city filter resolved by the
// low-cardinality bitmap index versus the residual decode-and-compare scan.
// The pair is recorded in BENCH_scan.json by `make bench`; the query is
// encoded once, so no dictionary hash lookup is in the loop.
func BenchmarkDictEqScan1M(b *testing.B) {
	dictEqBenchSetup(b)
	benchDictScan(b, dictEqBenchState.schema.Where().
		WithStringEquals("city", "nyc").
		WithIntRange("ts", 400_000, 500_000).
		Query())
}

// BenchmarkDictRangeScan1M is the same pair under a range over twelve of the
// forty dictionary codes of zone (plus the 10% ts band): the interval-encoded
// bitmap index resolves it with the two bitmaps an equality takes.
func BenchmarkDictRangeScan1M(b *testing.B) {
	dictEqBenchSetup(b)
	s := dictEqBenchState.schema
	lo, hi, _ := s.DictionaryAt(s.ColumnIndex("zone")).RangeFor("zone08", "zone19")
	benchDictScan(b, s.Where().
		WithRange("zone", lo, hi).
		WithIntRange("ts", 400_000, 500_000).
		Query())
}

// benchDictScan runs q as a COUNT over the bitmap-indexed and the residual
// index.
func benchDictScan(b *testing.B, q Query) {
	s := &dictEqBenchState
	run := func(b *testing.B, idx *Flood) {
		agg := NewCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg.Reset()
			idx.Execute(q, agg)
		}
		b.StopTimer()
		if agg.Result() == 0 {
			b.Fatal("benchmark query matched nothing")
		}
	}
	b.Run("bitmapindex", func(b *testing.B) { run(b, s.bitmap) })
	b.Run("residualscan", func(b *testing.B) { run(b, s.residue) })
}

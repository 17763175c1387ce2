package flood

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"flood/internal/colstore"
	"flood/internal/dataset"
	"flood/internal/encode"
	"flood/internal/wire"
)

// typedCols is one logical load of typedSchema: an int, a string, a time, a
// float with declared digits and a float whose digits Build infers.
type typedCols struct {
	id    []int64
	city  []string
	ts    []time.Time
	price []float64
	ratio []float64
}

func typedSchema() *Schema {
	return NewSchema().Int64("id").String("city").TimeUnit("ts", time.Second).
		Float64("price", 2).Float64("ratio", -1)
}

func newTypedCols(n int, seed int64) typedCols {
	rng := rand.New(rand.NewSource(seed))
	words := strings.Fields("oslo nyc paris lisbon austin berlin dublin prague vienna madrid a ab abc")
	d := typedCols{
		id: make([]int64, n), city: make([]string, n), ts: make([]time.Time, n),
		price: make([]float64, n), ratio: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		d.id[i] = rng.Int63n(1<<40) - 1<<39
		d.city[i] = words[rng.Intn(len(words))]
		d.ts[i] = time.Unix(1_600_000_000+rng.Int63n(1e8), rng.Int63n(1e9)).UTC()
		d.price[i] = float64(rng.Intn(1e6)) / 100
		d.ratio[i] = float64(rng.Intn(1e5)-5e4) / 1000 // three digits unless the draw is round
	}
	return d
}

// referenceTable is the sequential two-step path Build replaced: a sorted
// dictionary looked up row by row, the smallest exact digit count inferred
// and then encoded in a second pass, and colstore.NewTable compressing the
// columns one after another. It returns the table, the dictionary's values
// and the inferred digits.
func (d typedCols) referenceTable(t *testing.T) (*Table, []string, int) {
	t.Helper()
	values := slices.Clone(d.city)
	sort.Strings(values)
	values = slices.Compact(values)
	city := make([]int64, len(d.city))
	for i, s := range d.city {
		city[i] = int64(sort.SearchStrings(values, s))
	}
	digits := 0
	for ; digits <= 9; digits++ {
		f := math.Pow(10, float64(digits))
		if !slices.ContainsFunc(d.ratio, func(v float64) bool { return math.Round(v*f)/f != v }) {
			break
		}
	}
	encodeFloats := func(digits int, col []float64) []int64 {
		sc, err := encode.NewDecimalScaler(digits)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sc.Encode(col)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	tbl, err := colstore.NewTable(typedSchema().Names(), [][]int64{
		d.id, city, encode.TimeCodec{Unit: time.Second}.Encode(d.ts),
		encodeFloats(2, d.price), encodeFloats(digits, d.ratio),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, values, digits
}

func tableBytes(t testing.TB, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	tbl.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTableBuilderMatchesReference holds the one-pass, pooled Build to the
// sequential two-step path bit for bit: the table's encoding, the fitted
// dictionary and the inferred digits, loaded column-wise and row-wise, for
// empty, one-row and multi-block tables.
func TestTableBuilderMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 129, 5000} {
		d := newTypedCols(n, int64(n)+11)
		want, values, digits := d.referenceTable(t)
		for _, load := range []string{"columns", "rows"} {
			t.Run(fmt.Sprintf("n=%d/%s", n, load), func(t *testing.T) {
				s := typedSchema()
				b := s.NewTableBuilder()
				if load == "columns" {
					for _, err := range []error{
						b.SetInt64Column("id", d.id),
						b.SetStringColumn("city", d.city),
						b.SetTimeColumn("ts", d.ts),
						b.SetFloat64Column("price", d.price),
						b.SetFloat64Column("ratio", d.ratio),
					} {
						if err != nil {
							t.Fatal(err)
						}
					}
				} else {
					for i := 0; i < n; i++ {
						if err := b.AppendRow(d.id[i], d.city[i], d.ts[i], d.price[i], d.ratio[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				tbl, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(tableBytes(t, tbl), tableBytes(t, want)) {
					t.Fatal("table encodes differently from the reference")
				}
				if got := s.Dictionary("city").Values(); !slices.Equal(got, values) {
					t.Fatalf("dictionary %q, want %q", got, values)
				}
				if got := s.Scaler("ratio").Digits(); got != digits {
					t.Fatalf("inferred %d digits, want %d", got, digits)
				}
				if got := s.Scaler("price").Digits(); got != 2 {
					t.Fatalf("declared digits became %d", got)
				}
			})
		}
	}
}

// TestTableBuilderLowestColumnError fails two columns at once, by encoding and
// by length: whichever task finishes first, Build reports the lower-numbered
// column, and the schema keeps the fit of its last successful Build.
func TestTableBuilderLowestColumnError(t *testing.T) {
	s := NewSchema().Int64("a").Float64("b", -1).String("c").Float64("d", -1)
	b := s.NewTableBuilder()
	if err := b.AppendRow(int64(1), 0.5, "x", 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	dict, scaler := s.Dictionary("c"), s.Scaler("b")
	third := []float64{1.0 / 3}
	for i := 0; i < 50; i++ {
		for _, c := range []struct {
			load func(*TableBuilder)
			want string
		}{
			{func(b *TableBuilder) {
				b.SetInt64Column("a", []int64{1})
				b.SetFloat64Column("b", third)
				b.SetStringColumn("c", []string{"y"})
				b.SetFloat64Column("d", third)
			}, `column "b"`},
			{func(b *TableBuilder) {
				b.SetInt64Column("a", []int64{1, 2})
				b.SetFloat64Column("b", []float64{1})
				b.SetStringColumn("c", []string{"y", "z"})
				b.SetFloat64Column("d", []float64{1})
			}, `column "b" has 1 rows, want 2`},
			{func(b *TableBuilder) {
				b.SetInt64Column("a", []int64{1, 2})
				b.SetFloat64Column("b", []float64{1, 2})
				b.SetStringColumn("c", []string{"y"})
				b.SetFloat64Column("d", third)
			}, `column "c" has 1 rows, want 2`},
		} {
			b := s.NewTableBuilder()
			c.load(b)
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build error %v, want one naming %s", err, c.want)
			}
		}
	}
	if s.Dictionary("c") != dict || s.Scaler("b") != scaler {
		t.Fatal("a failed Build refitted the schema")
	}
}

// loadSalesShaped loads a builder with n rows shaped like the repository
// benchmark's typed sales table: three int columns, a city string of 16
// values, a price with two declared digits and a day-unit date.
func loadSalesShaped(tb testing.TB, n int) func() *TableBuilder {
	cities := strings.Fields("amsterdam austin berlin boston chicago denver dublin lisbon london madrid nyc oslo paris prague seattle vienna")
	ds := dataset.Sales(n, 42)
	city := make([]string, n)
	price := make([]float64, n)
	date := make([]time.Time, n)
	for i := 0; i < n; i++ {
		city[i] = cities[ds.Cols[2][i]%int64(len(cities))]
		price[i] = float64(ds.Cols[4][i]) / 100
		date[i] = time.Unix((18628+ds.Cols[5][i])*86400, 0).UTC()
	}
	s := NewSchema().Int64("order_id").Int64("customer").Int64("quantity").
		String("city").Float64("price", 2).TimeUnit("date", 24*time.Hour)
	return func() *TableBuilder {
		b := s.NewTableBuilder()
		for _, err := range []error{
			b.SetInt64Column("order_id", ds.Cols[0]),
			b.SetInt64Column("customer", ds.Cols[1]),
			b.SetInt64Column("quantity", ds.Cols[3]),
			b.SetStringColumn("city", city),
			b.SetFloat64Column("price", price),
			b.SetTimeColumn("date", date),
		} {
			if err != nil {
				tb.Fatal(err)
			}
		}
		return b
	}
}

// TestTableBuilderAllocationBound bounds what Build allocates on a 500k-row
// sales-shaped table: the encoded columns (three of them, 8 B a row each) and
// the compressed table, not a map the size of the table.
func TestTableBuilderAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, maxPerRow = 500_000, 40
	load := loadSalesShaped(t, n)
	b := load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perRow := float64(after.TotalAlloc-before.TotalAlloc) / n; perRow > maxPerRow {
		t.Fatalf("Build allocated %.1f B a row, want <= %d", perRow, maxPerRow)
	}
}

// BenchmarkTableBuilderBuild is the typed ingest step of the repository
// benchmark's SQL workloads: fit and encode a 500k-row sales-shaped table.
func BenchmarkTableBuilderBuild(b *testing.B) {
	load := loadSalesShaped(b, 500_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := load()
		b.StartTimer()
		if _, err := tb.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

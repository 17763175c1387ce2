package floodsql

import (
	"math/rand"
	"testing"

	"flood"
)

// parseSeeds is the seed corpus of FuzzFloodSQLParse, written for the
// city/fare/dist schema both fuzz targets parse against; its aggregates also
// seed FuzzSQLDifferential.
var parseSeeds = []string{
	"SELECT COUNT(*) FROM t",
	"SELECT COUNT(*) FROM t WHERE city >= 'chicago' AND fare <= 10.0",
	"SELECT city, fare FROM t WHERE dist BETWEEN 10 AND 100",
	"SELECT SUM(dist) FROM t WHERE city = 'nyc'",
	"SELECT COUNT(*) FROM t WHERE fare < -100000000000000000000.0",
	"SELECT city FROM t WHERE city LIKE 'bo%'",
	"DELETE FROM t WHERE city = 'nyc' OR fare > 50.0",
	"DELETE FROM t",
	"UPDATE t SET fare = 5.25, dist = 7 WHERE city = 'boston'",
	"UPDATE t SET city = 'chicago'",
	"UPDATE t SET fare = 1.234",
	"INSERT INTO t VALUES ('boston', 10.5, 42)",
	"INSERT INTO t (dist, fare, city) VALUES (1, 1.25, 'nyc'), (2, 99.99, 'chicago')",
	"INSERT INTO t (city) VALUES ('boston')",
	"INSERT INTO t VALUES",
	// The repository benchmark's four lookup_sql shapes, on this schema.
	"SELECT * FROM t WHERE dist = 42",
	"SELECT dist, fare, city FROM t WHERE dist BETWEEN 3 AND 250 LIMIT 10",
	"SELECT dist, fare FROM t WHERE dist BETWEEN -100 AND 300 AND city = 'nyc' AND fare BETWEEN 1 AND 20",
	"SELECT COUNT(*) FROM t WHERE dist BETWEEN 3 AND 3002 AND city = 'chicago'",
	"SELECT COUNT(*) FROM t WHERE city IN ('nyc', 'it''s', 'boston') AND (dist < 5 OR dist IN (42, 250))",
	"DELETE FROM t LIMIT 5",
	"UPDATE t SET",
	"SELECT * FROM",
	"';;;'",
	"",
}

// FuzzFloodSQLParse throws arbitrary strings at the SQL parser with a fitted
// typed schema attached, so predicate binding (dictionary lookups, decimal
// scaling) runs too: any input must parse or error, never panic.
func FuzzFloodSQLParse(f *testing.F) {
	s := flood.NewSchema().String("city").Float64("fare", 2).Int64("dist")
	b := s.NewTableBuilder()
	if err := b.SetStringColumn("city", []string{"boston", "chicago", "nyc"}); err != nil {
		f.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", []float64{1.25, 10.5, 99.99}); err != nil {
		f.Fatal(err)
	}
	if err := b.SetInt64Column("dist", []int64{3, 42, 250}); err != nil {
		f.Fatal(err)
	}
	if _, err := b.Build(); err != nil { // fits the dictionary and scaler
		f.Fatal(err)
	}

	for _, sql := range parseSeeds {
		f.Add(sql)
	}

	f.Fuzz(func(t *testing.T, sql string) {
		st, err := ParseTyped(sql, s)
		if err != nil {
			return
		}
		// A statement that parses must lower to executable queries and an
		// aggregator without panicking.
		_, _ = st.Queries()
	})
}

// FuzzSQLDifferential runs every statement that parses as an aggregate against
// a small typed table on a learned flat index, a 3-shard index and a full
// scan: the three must agree on the value and on Stats.Matched.
func FuzzSQLDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	cities := []string{"austin", "boston", "chicago", "nyc", "seattle"}
	var city []string
	var fare []float64
	var dist []int64
	for i := 0; i < 3000; i++ {
		city = append(city, cities[rng.Intn(len(cities))])
		fare = append(fare, float64(rng.Intn(10000))/100)
		dist = append(dist, rng.Int63n(300))
	}
	s := flood.NewSchema().String("city").Float64("fare", 2).Int64("dist")
	b := s.NewTableBuilder()
	if err := b.SetStringColumn("city", city); err != nil {
		f.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", fare); err != nil {
		f.Fatal(err)
	}
	if err := b.SetInt64Column("dist", dist); err != nil {
		f.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	train := []flood.Query{
		flood.NewQuery(3).WithRange(2, 10, 100),
		flood.NewQuery(3).WithRange(1, 1000, 5000),
		flood.NewQuery(3).WithRange(0, 1, 1).WithRange(2, 0, 50),
	}
	opts := &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 6, Schema: s}
	flat, err := flood.Build(tbl, train, opts)
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := flood.NewSharded(tbl, train, &flood.ShardedOptions{Shards: 3, Build: opts})
	if err != nil {
		f.Fatal(err)
	}
	full, err := flood.BuildBaseline(flood.FullScan, tbl, flood.BaselineOptions{})
	if err != nil {
		f.Fatal(err)
	}
	// aggregate is sql's statement when it parses as an aggregate, else nil.
	aggregate := func(sql string) *Statement {
		st, err := ParseTyped(sql, s)
		if err != nil {
			return nil
		}
		if _, agg := st.Queries(); agg == nil {
			return nil
		}
		return st
	}
	for _, sql := range parseSeeds {
		if aggregate(sql) != nil {
			f.Add(sql)
		}
	}

	f.Fuzz(func(t *testing.T, sql string) {
		st := aggregate(sql)
		if st == nil {
			return
		}
		want, wantStats, err := st.Run(full)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []flood.Index{flat, sharded} {
			got, stats, err := st.Run(idx)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || stats.Matched != wantStats.Matched {
				t.Fatalf("%q on %s: value %d matched %d, full scan %d matched %d",
					sql, idx.Name(), got, stats.Matched, want, wantStats.Matched)
			}
		}
	})
}

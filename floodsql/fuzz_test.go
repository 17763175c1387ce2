package floodsql

import (
	"testing"

	"flood"
)

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

	for _, sql := range []string{
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
	} {
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

package floodsql

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	flood "flood"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/parse_golden.txt from the parser's current output")

// goldenTyped is the typed corpus of TestParseGolden, parsed against
// goldenSchema: lookup_sql's four shapes, every atom on every column kind,
// every mutation form, the lexer's number and string edges, and one error of
// each kind with its byte offset.
var goldenTyped = []string{
	// lookup_sql's four statement shapes.
	"SELECT * FROM sales WHERE order_id = 123456",
	"SELECT order_id, price, date FROM sales WHERE order_id BETWEEN 1000 AND 1299 LIMIT 10",
	"SELECT order_id, quantity, price FROM sales WHERE order_id BETWEEN 500 AND 3500 AND customer = 17 AND date BETWEEN 18900 AND 18906",
	"SELECT COUNT(*) FROM sales WHERE order_id BETWEEN 1000 AND 3999 AND city = 'lisbon'",
	// IN, OR, LIKE and BETWEEN on string, float and time columns.
	"SELECT SUM(price) FROM sales WHERE city IN ('nyc', 'lisbon', 'atlantis')",
	"SELECT COUNT(*) FROM sales WHERE price IN (1.25, 9.99, 3, 1.234)",
	"SELECT COUNT(*) FROM sales WHERE date IN (18900, 18901) AND city IN ('boston')",
	"SELECT MIN(date) FROM sales WHERE city = 'nyc' OR price > 10.5",
	"SELECT MAX(quantity) FROM sales WHERE (city < 'm' OR city >= 'p') AND quantity <= 7",
	"SELECT MAX(date) FROM sales WHERE city > 'lisbon' OR city <= 'boston' OR date < 18901",
	"SELECT city FROM sales WHERE city LIKE 'b%'",
	"SELECT city FROM sales WHERE city LIKE 'zz%'",
	"SELECT city, price FROM sales WHERE city LIKE '%' AND price BETWEEN 1.005 AND 9.999",
	"SELECT COUNT(*) FROM sales WHERE city BETWEEN 'boston' AND 'nyc'",
	"SELECT COUNT(*) FROM sales WHERE city BETWEEN 'c' AND 'd'",
	"SELECT COUNT(*) FROM sales WHERE date BETWEEN 18000 AND 19000 OR date = 17000",
	"SELECT COUNT(*) FROM sales WHERE price BETWEEN 2 AND 3 OR price BETWEEN 3.5 AND 2",
	"SELECT COUNT(*) FROM sales WHERE price < 1.25 OR price > 1.25 OR price <= 1.234 OR price >= 1.234",
	"SELECT COUNT(*) FROM sales WHERE price = 2.5 OR price = 2.50 OR price = 1.234",
	"SELECT COUNT(*) FROM sales WHERE (order_id = 1 OR order_id = 2) AND (customer = 3 OR customer = 4)",
	"SELECT COUNT(*) FROM sales WHERE order_id = 1 AND order_id = 2",
	"SELECT COUNT(*) FROM sales WHERE quantity = 1 AND (order_id = 1 OR (customer = 2 AND (order_id = 3 OR order_id = 4)))",
	// Qualified names, underscored and decimal numbers, int64 extremes,
	// doubled-quote strings, case and whitespace.
	"SELECT R.order_id, sales.price FROM sales WHERE R.customer = 1_000 AND x.y.quantity >= 1__0_",
	"SELECT COUNT(*) FROM sales WHERE price > -0.50 AND price < 1_000.25",
	"SELECT COUNT(*) FROM sales WHERE price >= 0.005 AND price <= -0.005",
	"SELECT COUNT(*) FROM sales WHERE order_id >= -9223372036854775808 AND order_id <= 9223372036854775807",
	"SELECT COUNT(*) FROM sales WHERE order_id > 9223372036854775807",
	"SELECT COUNT(*) FROM sales WHERE order_id < -9223372036854775808",
	"SELECT COUNT(*) FROM sales WHERE customer BETWEEN -999_999_999_999_999_999 AND 999999999999999999",
	"SELECT COUNT(*) FROM sales WHERE price >= 92233720368547758.07 OR price < -92233720368547758.08",
	"SELECT COUNT(*) FROM sales WHERE city = 'it''s' OR city = 'o''brien'",
	"SELECT COUNT(*) FROM sales WHERE city = '' OR city = '''' OR city = 'nyc'''",
	"SELECT * FROM sales WHERE order_id = 5 LIMIT 1_000",
	"SELECT * FROM sales LIMIT 9223372036854775807",
	"SELECT price FROM sales",
	"select count(*) from SALES where order_id = 1 and city = 'nyc' or customer in (7)",
	"\tSELECT\n*\r\nFROM sales WHERE order_id=1AND customer>=2",
	"SELECT COUNT(*) FROM sales WHERE((order_id=1))",
	// Mutations.
	"DELETE FROM sales WHERE city = 'nyc' OR order_id < 0",
	"DELETE FROM sales",
	"UPDATE sales SET price = 5.25, city = 'lisbon', date = 18900 WHERE order_id = 7",
	"UPDATE sales SET quantity = -1",
	"INSERT INTO sales VALUES (1, 2, 3, 'nyc', 4.5, 18900)",
	"INSERT INTO sales (date, price, city, quantity, customer, order_id) VALUES (18901, 0.01, 'o''brien', 1, 2, 3), (18902, 1_000.5, 'nyc', -1, -2, -3)",
	// Errors, each with its offset.
	"",
	"FOO",
	"SELECT",
	"SELECT FROM sales",
	"SELECT * sales",
	"SELECT * FROM",
	"SELECT * FROM sales WHERE",
	"SELECT * FROM sales ORDER BY order_id",
	"SELECT * FROM sales WHERE order_id = 1 extra",
	"SELECT COUNT(*) FROM sales WHERE order_id BETWEEEN 1 AND 2",
	"SELECT COUNT(*) FROM sales WHERE order_id BETWEEN 1 OR 2",
	"SELECT COUNT(*) FROM sales WHERE city = 'nyc",
	"SELECT COUNT(*) FROM sales WHERE order_id = 1 OR city = 'nyc",
	"SELECT COUNT(*) FROM sales WHERE nosuch = 1",
	"SELECT COUNT(*) FROM sales WHERE Order_Id = 1",
	"SELECT COUNT(*) FROM sales WHERE city = 5",
	"SELECT COUNT(*) FROM sales WHERE order_id = 1.5",
	"SELECT COUNT(*) FROM sales WHERE date = 'monday'",
	"SELECT COUNT(*) FROM sales WHERE order_id = 9223372036854775808",
	"SELECT COUNT(*) FROM sales WHERE order_id = -9223372036854775809",
	"SELECT COUNT(*) FROM sales WHERE order_id = 99_999_999_999_999_999_999",
	"SELECT COUNT(*) FROM sales WHERE order_id = -",
	"SELECT COUNT(*) FROM sales WHERE order_id <> 1",
	"SELECT COUNT(*) FROM sales WHERE order_id == 1",
	"SELECT COUNT(*) FROM sales WHERE price = 1e5",
	"SELECT COUNT(*) FROM sales WHERE price = 1_000.5_0",
	"SELECT COUNT(*) FROM sales WHERE price = .5",
	"SELECT COUNT(*) FROM sales WHERE city LIKE 'a%b%'",
	"SELECT COUNT(*) FROM sales WHERE city LIKE 'a_%'",
	"SELECT COUNT(*) FROM sales WHERE city LIKE 'abc'",
	"SELECT COUNT(*) FROM sales WHERE city LIKE 5",
	"SELECT COUNT(*) FROM sales WHERE price LIKE 'a%'",
	"SELECT COUNT(*) FROM sales WHERE city IN ()",
	"SELECT COUNT(*) FROM sales WHERE city IN 'nyc'",
	"SELECT COUNT(*) FROM sales WHERE city IN ('nyc',)",
	"SELECT COUNT(*) FROM sales WHERE city IN ('nyc' 'boston')",
	"SELECT COUNT(*) FROM sales WHERE city BETWEEN 'a' AND 5",
	"SELECT COUNT(*) FROM sales WHERE order_id BETWEEN 1 AND 'z'",
	"SELECT COUNT(*) FROM sales WHERE date BETWEEN 1.5 AND 2",
	"SELECT COUNT(*) FROM sales WHERE city BETWEEN 1 AND 2",
	"SELECT COUNT(*) FROM sales WHERE (order_id = 1",
	"SELECT COUNT(*) FROM sales WHERE order_id = 1)",
	"SELECT COUNT(*) FROM sales WHERE order_id = 1 ; DROP TABLE sales",
	"SELECT SUM(city) FROM sales",
	"SELECT SUM(date) FROM sales",
	"SELECT AVG(price) FROM sales",
	"SELECT COUNT(order_id) FROM sales",
	"SELECT SUM(*) FROM sales",
	"SELECT SUM(price FROM sales",
	"SELECT order_id, FROM sales",
	"SELECT order_id nosuch FROM sales",
	"SELECT COUNT(*) FROM sales LIMIT 5",
	"SELECT * FROM sales LIMIT 0",
	"SELECT * FROM sales LIMIT -1",
	"SELECT * FROM sales LIMIT 1.5",
	"SELECT * FROM sales LIMIT 'ten'",
	"SELECT * FROM sales LIMIT 99999999999999999999",
	"SELECT * FROM sales LIMIT 10 LIMIT 10",
	"DELETE sales",
	"DELETE FROM sales WHERE order_id = 1 LIMIT 1",
	"UPDATE sales price = 1",
	"UPDATE sales SET price = 1.234",
	"UPDATE sales SET city = 'gotham'",
	"UPDATE sales SET price = 'cheap'",
	"UPDATE sales SET order_id = 2.5",
	"UPDATE sales SET city = 1",
	"UPDATE sales SET order_id 1",
	"INSERT INTO sales VALUES (1)",
	"INSERT INTO sales VALUES 1, 2",
	"INSERT INTO sales (order_id) VALUES (1)",
	"INSERT INTO sales (order_id, order_id, customer, quantity, city, price) VALUES (1, 1, 1, 1, 'nyc', 1)",
	"INSERT INTO sales VALUES (1, 2, 3, 'nyc', 4.5, 18900) extra",
	"INSERT sales VALUES (1, 2, 3, 'nyc', 4.5, 18900)",
}

// goldenRaw is the corpus parsed against the raw int64 table of testTable.
var goldenRaw = []string{
	"SELECT SUM(R.qty) FROM t WHERE R.price BETWEEN -5 AND 1_000",
	"SELECT MIN(day) FROM t WHERE qty IN (1, 2) OR price > 9223372036854775807",
	"DELETE FROM t WHERE qty IN (1, 2)",
	"UPDATE t SET qty = 5, day = -1 WHERE day = 1",
	"INSERT INTO t VALUES (1, 2, 3)",
	"SELECT * FROM t",
	"SELECT qty FROM t",
	"SELECT COUNT(*) FROM t WHERE price = 1.5",
	"SELECT COUNT(*) FROM t WHERE price = 'x'",
	"SELECT COUNT(*) FROM t WHERE price LIKE 'x%'",
	"UPDATE t SET qty = 2.5",
}

// goldenWide is the corpus parsed against wideSchema, a table wider than
// inlineCols: statements whose storage cannot live in the statement block.
var goldenWide = []string{
	"SELECT * FROM w WHERE c0 = 1",
	"SELECT c9, w.c0, tag FROM w WHERE c0 BETWEEN 1 AND 5 AND c8 > 2 AND tag = 'b' LIMIT 3",
	"SELECT COUNT(*) FROM w WHERE c1 = 1 OR c2 IN (3, 4) OR tag LIKE 'a%'",
	"SELECT COUNT(*) FROM w WHERE c3 < 5 AND c3 > 9",
	"SELECT SUM(c9) FROM w",
	"DELETE FROM w WHERE c4 = 4 OR tag = 'zz'",
	"UPDATE w SET c9 = 1, tag = 'a' WHERE c0 = 2",
	"INSERT INTO w VALUES (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 'b')",
	"SELECT c10 FROM w",
}

// wideSchema is ten int64 columns and a string one over two rows.
func wideSchema(t *testing.T) *flood.Schema {
	t.Helper()
	s := flood.NewSchema()
	for c := 0; c < 10; c++ {
		s.Int64(fmt.Sprintf("c%d", c))
	}
	s.String("tag")
	b := s.NewTableBuilder()
	for c := 0; c < 10; c++ {
		if err := b.SetInt64Column(fmt.Sprintf("c%d", c), []int64{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetStringColumn("tag", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenSchema is the lookup_sql schema over a handful of rows, which fix
// its dictionary and scales.
func goldenSchema(t *testing.T) *flood.Schema {
	t.Helper()
	s := flood.NewSchema().Int64("order_id").Int64("customer").Int64("quantity").
		String("city").Float64("price", 2).TimeUnit("date", 24*time.Hour)
	b := s.NewTableBuilder()
	day := func(d int64) time.Time { return time.Unix(d*86400, 0).UTC() }
	for _, err := range []error{
		b.SetInt64Column("order_id", []int64{1, 2, 3, 4, 5}),
		b.SetInt64Column("customer", []int64{10, 11, 12, 13, 14}),
		b.SetInt64Column("quantity", []int64{1, 2, 3, 4, 5}),
		b.SetStringColumn("city", []string{"boston", "lisbon", "nyc", "o'brien", "paris"}),
		b.SetFloat64Column("price", []float64{1.25, 2.5, 9.99, 0.01, 4.5}),
		b.SetTimeColumn("date", []time.Time{day(18900), day(18901), day(18902), day(18903), day(18904)}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParseGolden pins what the parser makes of each statement of a fixed
// corpus — the Statement's fields, or the exact error with its byte offset —
// against testdata/parse_golden.txt. The differential fuzzer hands one parse
// to every index, so it cannot see a parse that is wrong the same way
// everywhere; this can. Regenerate with `go test ./floodsql -run
// TestParseGolden -update` only for an intended change of output.
func TestParseGolden(t *testing.T) {
	schema := goldenSchema(t)
	tbl, _ := testTable(t)
	var b strings.Builder
	for _, sql := range goldenTyped {
		st, err := ParseTyped(sql, schema)
		renderGolden(&b, "typed", sql, schema.Name, st, err)
	}
	for _, sql := range goldenRaw {
		st, err := Parse(sql, tbl)
		renderGolden(&b, "raw", sql, tbl.Name, st, err)
	}
	wide := wideSchema(t)
	for _, sql := range goldenWide {
		st, err := ParseTyped(sql, wide)
		renderGolden(&b, "wide", sql, wide.Name, st, err)
	}
	const path = "testdata/parse_golden.txt"
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// renderGolden writes one corpus entry: the statement, then its fields (only
// those set) or its error.
func renderGolden(b *strings.Builder, mode, sql string, name func(int) string, st *Statement, err error) {
	fmt.Fprintf(b, "%s %q\n", mode, sql)
	if err != nil {
		fmt.Fprintf(b, "  error: %v\n\n", err)
		return
	}
	fmt.Fprintf(b, "  agg: %s  aggcol: %d  table: %q  limit: %d\n", st.Agg, st.AggCol, st.Table, st.Limit)
	if st.Projection != nil {
		fmt.Fprintf(b, "  projection: %q\n", st.Projection)
	}
	for _, q := range st.Disjuncts {
		b.WriteString("  rect:")
		for d, r := range q.Ranges {
			switch {
			case r.Present:
				fmt.Fprintf(b, " %s=[%s,%s]", name(d), bound(r.Min), bound(r.Max))
			case r.Min != flood.NegInf || r.Max != flood.PosInf:
				fmt.Fprintf(b, " %s~[%s,%s](absent)", name(d), bound(r.Min), bound(r.Max))
			}
		}
		b.WriteString("\n")
	}
	for _, a := range st.Assignments {
		fmt.Fprintf(b, "  set: %s=%d\n", name(a.Col), a.Value)
	}
	for _, row := range st.InsertRows {
		fmt.Fprintf(b, "  row: %d\n", row)
	}
	b.WriteString("\n")
}

// bound renders a range endpoint, naming the two infinities.
func bound(v int64) string {
	switch v {
	case flood.NegInf:
		return "-inf"
	case flood.PosInf:
		return "+inf"
	}
	return fmt.Sprint(v)
}

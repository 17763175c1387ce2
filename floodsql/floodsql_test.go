package floodsql

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	flood "flood"
)

func testTable(t *testing.T) (*flood.Table, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 3000
	cols := make([][]int64, 3)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = rng.Int63n(1000)
		}
	}
	tbl, err := flood.NewTable([]string{"price", "qty", "day"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, cols
}

func testIndex(t *testing.T, tbl *flood.Table) flood.Index {
	t.Helper()
	idx, err := flood.BuildWithLayout(tbl, flood.Layout{
		GridDims: []int{0, 1}, GridCols: []int{8, 4}, SortDim: 2, Flatten: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustRun(t *testing.T, idx flood.Index, tbl *flood.Table, sql string) int64 {
	t.Helper()
	st, err := Parse(sql, tbl)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	v, _, err := st.Run(idx)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return v
}

func TestSelectCountWhere(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM orders WHERE price BETWEEN 100 AND 300 AND qty >= 500")
	var want int64
	for i := range cols[0] {
		if cols[0][i] >= 100 && cols[0][i] <= 300 && cols[1][i] >= 500 {
			want++
		}
	}
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestSelectSumQualifiedColumns(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl, "select sum(R.price) from T where R.day < 100 and R.day > 10")
	var want int64
	for i := range cols[0] {
		if cols[2][i] < 100 && cols[2][i] > 10 {
			want += cols[0][i]
		}
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestSelectMinNoWhere(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl, "SELECT MIN(qty) FROM t")
	want := cols[1][0]
	for _, v := range cols[1] {
		if v < want {
			want = v
		}
	}
	if got != want {
		t.Fatalf("min = %d, want %d", got, want)
	}
}

func TestSelectMaxWhere(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl, "SELECT MAX(price) FROM t WHERE qty <= 400 OR day > 900")
	want := int64(-1 << 63)
	for i := range cols[0] {
		if (cols[1][i] <= 400 || cols[2][i] > 900) && cols[0][i] > want {
			want = cols[0][i]
		}
	}
	if got != want {
		t.Fatalf("max = %d, want %d", got, want)
	}
}

func TestDisjunction(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl,
		"SELECT COUNT(*) FROM t WHERE price <= 50 OR (price >= 900 AND qty = 7) OR day = 3")
	var want int64
	for i := range cols[0] {
		if cols[0][i] <= 50 || (cols[0][i] >= 900 && cols[1][i] == 7) || cols[2][i] == 3 {
			want++
		}
	}
	if got != want {
		t.Fatalf("disjunction count = %d, want %d", got, want)
	}
}

func TestNestedParensDistribute(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl,
		"SELECT COUNT(*) FROM t WHERE (price < 100 OR price > 900) AND (qty < 50 OR qty > 950)")
	var want int64
	for i := range cols[0] {
		p, q := cols[0][i], cols[1][i]
		if (p < 100 || p > 900) && (q < 50 || q > 950) {
			want++
		}
	}
	if got != want {
		t.Fatalf("distributed count = %d, want %d", got, want)
	}
}

func TestContradictionIsEmpty(t *testing.T) {
	tbl, _ := testTable(t)
	idx := testIndex(t, tbl)
	if got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE price < 10 AND price > 20"); got != 0 {
		t.Fatalf("contradiction matched %d rows", got)
	}
}

func TestParseErrors(t *testing.T) {
	tbl, _ := testTable(t)
	bad := []string{
		"",
		"SELECT",
		"SELECT AVG(price) FROM t",
		"SELECT COUNT(*) FROM",
		"SELECT COUNT(*) FROM t WHERE",
		"SELECT COUNT(*) FROM t WHERE nosuchcol = 5",
		"SELECT COUNT(*) FROM t WHERE price == 5 garbage",
		"SELECT COUNT(*) FROM t WHERE price BETWEEN 1",
		"SELECT SUM(*) FROM t",
		"SELECT COUNT(*) FROM t WHERE (price = 1",
		"SELECT COUNT(*) FROM t WHERE price = 99999999999999999999",
	}
	for _, sql := range bad {
		if _, err := Parse(sql, tbl); err == nil {
			t.Fatalf("Parse(%q) should fail", sql)
		}
	}
}

func TestAgainstFullScan(t *testing.T) {
	tbl, _ := testTable(t)
	idx := testIndex(t, tbl)
	fs, err := flood.BuildBaseline(flood.FullScan, tbl, flood.BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE price <= 500",
		"SELECT SUM(day) FROM t WHERE qty BETWEEN 100 AND 200 OR price = 42",
		"SELECT COUNT(*) FROM t WHERE day >= 990 OR day <= 10",
		"SELECT MIN(price) FROM t WHERE qty > 500 AND day < 500",
	}
	for _, sql := range queries {
		if a, b := mustRun(t, idx, tbl, sql), mustRun(t, fs, tbl, sql); a != b {
			t.Fatalf("%s: flood=%d fullscan=%d", sql, a, b)
		}
	}
}

func TestNegativeNumbersAndUnderscores(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE price >= -1_0 AND price <= 1_000")
	if got != int64(len(cols[0])) {
		t.Fatalf("full-range count = %d, want %d", got, len(cols[0]))
	}
}

// typedFixture builds a typed taxi-style table (city string, fare float(2),
// dist int) with ground-truth logical columns.
func typedFixture(t *testing.T) (*flood.Schema, flood.Index, []string, []float64, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cities := []string{"austin", "boston", "chicago", "nyc", "seattle"}
	n := 4000
	var city []string
	var fare []float64
	var dist []int64
	for i := 0; i < n; i++ {
		city = append(city, cities[rng.Intn(len(cities))])
		fare = append(fare, float64(rng.Intn(5000))/100)
		dist = append(dist, rng.Int63n(300))
	}
	s := flood.NewSchema().String("city").Float64("fare", 2).Int64("dist")
	b := s.NewTableBuilder()
	if err := b.SetStringColumn("city", city); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", fare); err != nil {
		t.Fatal(err)
	}
	if err := b.SetInt64Column("dist", dist); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := flood.BuildWithLayout(tbl, flood.Layout{
		GridDims: []int{0, 2}, GridCols: []int{5, 4}, SortDim: 1, Flatten: true,
	}, &flood.Options{Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	return s, idx, city, fare, dist
}

func mustSelect(t *testing.T, s *flood.Schema, idx flood.Index, sql string) *flood.Rows {
	t.Helper()
	st, err := ParseTyped(sql, s)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, _, err := st.Select(idx)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}

// TestProjectionTypedLiterals is the acceptance query: string equality plus
// a float BETWEEN, projected through the schema with typed decoding.
func TestProjectionTypedLiterals(t *testing.T) {
	s, idx, city, fare, _ := typedFixture(t)
	rows := mustSelect(t, s, idx,
		"SELECT city, fare FROM t WHERE city = 'nyc' AND fare BETWEEN 1.5 AND 9.99")
	defer rows.Close()
	want := 0
	for i := range city {
		if city[i] == "nyc" && fare[i] >= 1.5 && fare[i] <= 9.99 {
			want++
		}
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "city" || cols[1] != "fare" {
		t.Fatalf("projection = %v", cols)
	}
	got := 0
	for rows.Next() {
		if rows.String(0) != "nyc" {
			t.Fatalf("row city = %q", rows.String(0))
		}
		if f := rows.Float64(1); f < 1.5 || f > 9.99 {
			t.Fatalf("row fare = %v outside range", f)
		}
		got++
	}
	if got != want || got == 0 {
		t.Fatalf("projection matched %d rows, brute force %d", got, want)
	}
}

func TestProjectionStarAndDisjunction(t *testing.T) {
	s, idx, city, fare, dist := typedFixture(t)
	rows := mustSelect(t, s, idx,
		"SELECT * FROM t WHERE city < 'boston' OR (fare > 45.0 AND dist >= 250)")
	defer rows.Close()
	want := 0
	for i := range city {
		if city[i] < "boston" || (fare[i] > 45.0 && dist[i] >= 250) {
			want++
		}
	}
	if cols := rows.Columns(); len(cols) != 3 {
		t.Fatalf("SELECT * projected %v", cols)
	}
	if rows.Len() != want {
		t.Fatalf("matched %d rows, brute force %d", rows.Len(), want)
	}
	for rows.Next() {
		if !(rows.String(0) < "boston" || (rows.Float64(1) > 45.0 && rows.Int64(2) >= 250)) {
			t.Fatalf("row (%s, %v, %d) fails the predicate",
				rows.String(0), rows.Float64(1), rows.Int64(2))
		}
	}
}

func TestLikePrefix(t *testing.T) {
	s, idx, city, _, _ := typedFixture(t)
	rows := mustSelect(t, s, idx, "SELECT city FROM t WHERE city LIKE 'bo%'")
	defer rows.Close()
	want := 0
	for _, c := range city {
		if len(c) >= 2 && c[:2] == "bo" {
			want++
		}
	}
	if rows.Len() != want || want == 0 {
		t.Fatalf("LIKE matched %d rows, brute force %d", rows.Len(), want)
	}
	if _, err := ParseTyped("SELECT city FROM t WHERE city LIKE '%bo%'", s); err == nil {
		t.Fatal("non-prefix LIKE pattern should fail to parse")
	}
}

func TestTypedAggregates(t *testing.T) {
	s, idx, city, fare, _ := typedFixture(t)
	st, err := ParseTyped("SELECT COUNT(*) FROM t WHERE city >= 'chicago' AND fare <= 10.0", s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := range city {
		if city[i] >= "chicago" && fare[i] <= 10.0 {
			want++
		}
	}
	if got != want {
		t.Fatalf("typed count = %d, want %d", got, want)
	}
}

func TestStrictFloatBounds(t *testing.T) {
	s, idx, _, fare, _ := typedFixture(t)
	st, err := ParseTyped("SELECT COUNT(*) FROM t WHERE fare < 10.0", s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := st.Run(idx)
	var want int64
	for _, f := range fare {
		if f < 10.0 {
			want++
		}
	}
	if got != want {
		t.Fatalf("fare < 10.0 counted %d, want %d", got, want)
	}
	// Unknown dictionary value is an empty result, not an error.
	st, err = ParseTyped("SELECT COUNT(*) FROM t WHERE city = 'gotham'", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Run(idx); got != 0 {
		t.Fatalf("unknown city matched %d rows", got)
	}
}

func TestRunSelectMismatch(t *testing.T) {
	s, idx, _, _, _ := typedFixture(t)
	st, err := ParseTyped("SELECT city FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Run(idx); err == nil {
		t.Fatal("Run on a projection should fail")
	}
	st, err = ParseTyped("SELECT COUNT(*) FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Select(idx); err == nil {
		t.Fatal("Select on an aggregation should fail")
	}
	// Projections parsed against a raw table are rejected at parse time.
	tbl, _ := testTable(t)
	if _, err := Parse("SELECT price FROM t", tbl); err == nil ||
		!strings.Contains(err.Error(), "ParseTyped") {
		t.Fatalf("schema-less projection parse error = %v", err)
	}
	if _, err := Parse("SELECT * FROM t", tbl); err == nil {
		t.Fatal("schema-less SELECT * should fail at parse")
	}
}

// TestParseErrorPositions pins the debuggability contract: every parse error
// names the byte offset and the offending token.
func TestParseErrorPositions(t *testing.T) {
	tbl, _ := testTable(t)
	s, _, _, _, _ := typedFixture(t)
	cases := []struct {
		sql     string
		typed   bool
		wantSub string
	}{
		{"SELECT COUNT(*) FROM t WHERE price BETWEEEN 1 AND 2", false, `at byte 35 near "BETWEEEN"`},
		{"SELECT COUNT(*) FROM t WHERE nosuchcol = 5", false, `at byte 29 near "nosuchcol"`},
		{"SELECT COUNT(*) FROM t WHERE price = 1 garbage", false, `at byte 39 near "garbage"`},
		{"SELECT COUNT(*) FROM t WHERE price =", false, "near end of input"},
		{"SELECT city FROM t WHERE city = 'oops", true, "unterminated string literal"},
		{"SELECT dist FROM t WHERE dist = 'str'", true, `string literal on non-string column "dist"`},
		{"SELECT city FROM t WHERE dist = 1.5", true, `float literal on non-float column "dist"`},
	}
	for _, c := range cases {
		var err error
		if c.typed {
			_, err = ParseTyped(c.sql, s)
		} else {
			_, err = Parse(c.sql, tbl)
		}
		if err == nil {
			t.Fatalf("Parse(%q) should fail", c.sql)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("Parse(%q) error = %q, want substring %q", c.sql, err, c.wantSub)
		}
	}
}

func TestTypeMismatchAndAnchorRegressions(t *testing.T) {
	s, idx, _, fare, _ := typedFixture(t)
	// Integer literals on string columns must be rejected, not compared
	// against raw dictionary codes.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE city = 0",
		"SELECT COUNT(*) FROM t WHERE city BETWEEN 1 AND 3",
	} {
		if _, err := ParseTyped(sql, s); err == nil || !strings.Contains(err.Error(), `string column "city"`) {
			t.Fatalf("ParseTyped(%q) error = %v, want string-column type error", sql, err)
		}
	}
	// Error anchors point at the offending token, not the one after it.
	_, err := ParseTyped("SELECT nosuchcol FROM t", s)
	if err == nil || !strings.Contains(err.Error(), `at byte 7 near "nosuchcol"`) {
		t.Fatalf("projection column error anchored wrong: %v", err)
	}
	_, err = ParseTyped("SELECT AVG(fare) FROM t", s)
	if err == nil || !strings.Contains(err.Error(), `at byte 7 near "AVG"`) {
		t.Fatalf("aggregate error anchored wrong: %v", err)
	}
	// Huge float endpoints clamp instead of wrapping negative.
	st, err := ParseTyped("SELECT COUNT(*) FROM t WHERE fare <= 100000000000000000000.0", s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := st.Run(idx)
	if got != int64(len(fare)) {
		t.Fatalf("huge upper bound matched %d rows, want all %d", got, len(fare))
	}
}

func TestExtremeBoundsDoNotWrap(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	// Strict comparisons against the int64 extremes are empty, not
	// match-everything.
	if got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE price > 9223372036854775807"); got != 0 {
		t.Fatalf("price > MaxInt64 matched %d rows", got)
	}
	if got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE price < -9223372036854775808"); got != 0 {
		t.Fatalf("price < MinInt64 matched %d rows", got)
	}
	if got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE price >= -9223372036854775808"); got != int64(len(cols[0])) {
		t.Fatalf("price >= MinInt64 matched %d rows, want all", got)
	}
	// Float endpoints past the representable domain: strict > is empty,
	// <= matches everything.
	s, tidx, _, fare, _ := typedFixture(t)
	st, err := ParseTyped("SELECT COUNT(*) FROM t WHERE fare > 100000000000000000000.0", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Run(tidx); got != 0 {
		t.Fatalf("fare > 1e20 matched %d rows", got)
	}
	st, err = ParseTyped("SELECT COUNT(*) FROM t WHERE fare < -100000000000000000000.0", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Run(tidx); got != 0 {
		t.Fatalf("fare < -1e20 matched %d rows", got)
	}
	st, err = ParseTyped("SELECT COUNT(*) FROM t WHERE fare <= 100000000000000000000.0", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Run(tidx); got != int64(len(fare)) {
		t.Fatalf("fare <= 1e20 matched %d rows, want all %d", got, len(fare))
	}
}

func TestParseTypedUnfittedSchemaErrors(t *testing.T) {
	// A schema that never went through TableBuilder.Build: typed literals
	// must produce parse errors, not nil-pointer panics.
	s := flood.NewSchema().String("city").Float64("fare", -1).Int64("dist")
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE city = 'x'",
		"SELECT COUNT(*) FROM t WHERE city BETWEEN 'a' AND 'b'",
		"SELECT COUNT(*) FROM t WHERE city LIKE 'a%'",
		"SELECT COUNT(*) FROM t WHERE fare > 1.5",
		"SELECT COUNT(*) FROM t WHERE fare BETWEEN 1.0 AND 2.0",
	} {
		_, err := ParseTyped(sql, s)
		if err == nil || !strings.Contains(err.Error(), "build the table first") {
			t.Fatalf("ParseTyped(%q) = %v, want unfitted-schema error", sql, err)
		}
	}
	// Fixed-digit float columns have a scaler without a build, so integer
	// predicates on int columns still parse fine.
	if _, err := ParseTyped("SELECT COUNT(*) FROM t WHERE dist > 5", s); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateTypingRules(t *testing.T) {
	s, idx, _, fare, _ := typedFixture(t)
	// Aggregates over string columns are meaningless and rejected.
	if _, err := ParseTyped("SELECT SUM(city) FROM t", s); err == nil ||
		!strings.Contains(err.Error(), `cannot aggregate string column "city"`) {
		t.Fatalf("SUM(city) error = %v", err)
	}
	if _, err := ParseTyped("SELECT MIN(city) FROM t", s); err == nil {
		t.Fatal("MIN(city) should fail to parse")
	}
	// RunTyped decodes float aggregates into the logical domain.
	st, err := ParseTyped("SELECT MIN(fare) FROM t WHERE fare >= 10.0", s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.RunTyped(idx)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e18
	for _, f := range fare {
		if f >= 10.0 && f < want {
			want = f
		}
	}
	if got.(float64) != want {
		t.Fatalf("RunTyped MIN(fare) = %v, want %v", got, want)
	}
	st, err = ParseTyped("SELECT SUM(fare) FROM t WHERE city = 'nyc'", s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = st.RunTyped(idx)
	if err != nil {
		t.Fatal(err)
	}
	var sumScaled int64
	raw, _, _ := st.Run(idx)
	sumScaled = raw
	if got.(float64) != float64(sumScaled)/100 {
		t.Fatalf("RunTyped SUM(fare) = %v, want %v", got, float64(sumScaled)/100)
	}
	// COUNT stays int64 through RunTyped.
	st, err = ParseTyped("SELECT COUNT(*) FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.RunTyped(idx); got.(int64) != int64(len(fare)) {
		t.Fatalf("RunTyped COUNT = %v", got)
	}
}

func TestRunTypedEmptyExtremumIsNil(t *testing.T) {
	s, idx, _, _, _ := typedFixture(t)
	st, err := ParseTyped("SELECT MAX(fare) FROM t WHERE city = 'gotham'", s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.RunTyped(idx)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("empty MAX decoded to %v, want nil", got)
	}
	st, err = ParseTyped("SELECT MIN(fare) FROM t WHERE city = 'gotham'", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.RunTyped(idx); got != nil {
		t.Fatalf("empty MIN decoded to %v, want nil", got)
	}
}

// TestLimitParse pins the LIMIT grammar: valid limits parse, and zero,
// negative, fractional, and misplaced limits fail with positioned errors.
func TestLimitParse(t *testing.T) {
	s, _, _, _, _ := typedFixture(t)
	cases := []struct {
		sql     string
		limit   int
		wantErr string
	}{
		{"SELECT city FROM t WHERE fare > 10 LIMIT 5", 5, ""},
		{"SELECT city, fare FROM t LIMIT 3", 3, ""},
		{"SELECT * FROM t LIMIT 1", 1, ""},
		{"SELECT city FROM t WHERE fare > 10", 0, ""},
		{"SELECT city FROM t LIMIT 0", 0, `at byte 25 near "0": LIMIT must be positive`},
		{"SELECT city FROM t LIMIT -3", 0, `at byte 25 near "-3": LIMIT must be positive`},
		{"SELECT city FROM t LIMIT 2.5", 0, "LIMIT needs an integer row count"},
		{"SELECT city FROM t LIMIT", 0, "LIMIT needs an integer row count"},
		{"SELECT city FROM t LIMIT five", 0, "LIMIT needs an integer row count"},
		{"SELECT COUNT(*) FROM t LIMIT 5", 0, "LIMIT applies to projections, not aggregates"},
		{"SELECT city FROM t LIMIT 5 garbage", 0, "unexpected trailing input"},
	}
	for _, tc := range cases {
		st, err := ParseTyped(tc.sql, s)
		if tc.wantErr == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.sql, err)
			}
			if st.Limit != tc.limit {
				t.Fatalf("%s: Limit = %d, want %d", tc.sql, st.Limit, tc.limit)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error = %v, want containing %q", tc.sql, err, tc.wantErr)
		}
	}
}

// TestLimitPushdownSelect pins that a SQL LIMIT stops the scan early: the
// limited select returns exactly n rows and scans strictly fewer points
// than the unlimited statement, including across OR pieces (one shared
// budget) and on a statement with no WHERE clause.
func TestLimitPushdownSelect(t *testing.T) {
	s, idx, city, _, _ := typedFixture(t)
	nycTotal := 0
	for _, c := range city {
		if c == "nyc" {
			nycTotal++
		}
	}
	full, err := ParseTyped("SELECT city FROM t WHERE city = 'nyc'", s)
	if err != nil {
		t.Fatal(err)
	}
	rows, fullSt, err := full.Select(idx)
	if err != nil || rows.Len() != nycTotal {
		t.Fatalf("unlimited select = %d rows (err %v), want %d", rows.Len(), err, nycTotal)
	}
	rows.Close()

	lim, err := ParseTyped("SELECT city FROM t WHERE city = 'nyc' LIMIT 4", s)
	if err != nil {
		t.Fatal(err)
	}
	rows, limSt, err := lim.Select(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 {
		t.Fatalf("LIMIT 4 returned %d rows", rows.Len())
	}
	for rows.Next() {
		if rows.String(0) != "nyc" {
			t.Fatalf("limited row decoded %q", rows.String(0))
		}
	}
	rows.Close()
	if limSt.Scanned >= fullSt.Scanned {
		t.Fatalf("LIMIT 4 scanned %d points, not fewer than unlimited %d", limSt.Scanned, fullSt.Scanned)
	}

	orStmt, err := ParseTyped("SELECT city FROM t WHERE city = 'nyc' OR city = 'boston' LIMIT 6", s)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err = orStmt.Select(idx)
	if err != nil || rows.Len() != 6 {
		t.Fatalf("OR LIMIT 6 returned %d rows (err %v)", rows.Len(), err)
	}
	rows.Close()

	noWhere, err := ParseTyped("SELECT city FROM t LIMIT 2", s)
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := noWhere.Select(idx)
	if err != nil || rows.Len() != 2 {
		t.Fatalf("no-WHERE LIMIT 2 returned %d rows (err %v)", rows.Len(), err)
	}
	if st.Scanned > 2 {
		t.Fatalf("no-WHERE LIMIT 2 scanned %d points, want at most 2", st.Scanned)
	}
	rows.Close()
}

// TestRunContextCanceled pins RunContext: a canceled context stops an
// aggregation with flood.ErrCanceled and partial stats.
func TestRunContextCanceled(t *testing.T) {
	tbl, _ := testTable(t)
	idx := testIndex(t, tbl)
	st, err := Parse("SELECT COUNT(*) FROM t WHERE qty >= 0", tbl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, stats, err := st.RunContext(ctx, idx); !errors.Is(err, flood.ErrCanceled) || stats.Scanned != 0 {
		t.Fatalf("canceled RunContext = (%d scanned, %v), want (0, ErrCanceled)", stats.Scanned, err)
	}
	if v, _, err := st.RunContext(context.Background(), idx); err != nil || v != int64(tbl.NumRows()) {
		t.Fatalf("background RunContext = (%d, %v)", v, err)
	}
}

// TestDeleteStatementTyped pins the DELETE path end to end: parse against the
// typed schema, Exec against a plain Flood index, observe masked counts.
func TestDeleteStatementTyped(t *testing.T) {
	s, idx, city, _, _ := typedFixture(t)
	st, err := ParseTyped("DELETE FROM t WHERE city = 'nyc'", s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "delete" || st.Table != "t" || len(st.Disjuncts) != 1 {
		t.Fatalf("parsed DELETE = %+v", st)
	}
	var want int64
	for _, c := range city {
		if c == "nyc" {
			want++
		}
	}
	n, err := st.Exec(idx)
	if err != nil || n != want {
		t.Fatalf("DELETE affected %d rows (err %v), want %d", n, err, want)
	}
	// Deletes are idempotent: a second Exec finds nothing left to delete.
	if n, err := st.Exec(idx); err != nil || n != 0 {
		t.Fatalf("repeat DELETE affected %d rows (err %v), want 0", n, err)
	}
	count, err := ParseTyped("SELECT COUNT(*) FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := count.Run(idx); err != nil || got != int64(len(city))-want {
		t.Fatalf("post-delete COUNT(*) = %d (err %v), want %d", got, err, int64(len(city))-want)
	}
}

// TestDeleteStatementRaw pins DELETE parsed against a raw (schemaless) table,
// including the no-WHERE form that deletes every row.
func TestDeleteStatementRaw(t *testing.T) {
	tbl, cols := testTable(t)
	idx := testIndex(t, tbl)
	st, err := Parse("DELETE FROM orders WHERE price < 100", tbl)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range cols[0] {
		if v < 100 {
			want++
		}
	}
	if n, err := st.Exec(idx); err != nil || n != want {
		t.Fatalf("DELETE affected %d rows (err %v), want %d", n, err, want)
	}
	all, err := Parse("DELETE FROM orders", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := all.Exec(idx); err != nil || n != int64(len(cols[0]))-want {
		t.Fatalf("unfiltered DELETE affected %d rows (err %v), want %d", n, err, int64(len(cols[0]))-want)
	}
	if got := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM orders"); got != 0 {
		t.Fatalf("COUNT(*) after deleting every row = %d", got)
	}
}

// TestUpdateStatementTyped pins UPDATE through an insert-capable facade (an
// AdaptiveIndex with automatic merges off): assignments are
// encoded through the schema (dictionary code, scaled decimal) and the
// rewritten rows are observable through subsequent typed queries.
func TestUpdateStatementTyped(t *testing.T) {
	s, base, city, _, _ := typedFixture(t)
	fl, ok := base.(*flood.Flood)
	if !ok {
		t.Fatalf("typedFixture returned %T", base)
	}
	idx := flood.NewAdaptiveIndex(fl, &flood.AdaptiveConfig{MergeFraction: -1})
	defer idx.Close()
	st, err := ParseTyped("UPDATE t SET fare = 5.25, dist = 7 WHERE city = 'boston'", s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "update" || len(st.Assignments) != 2 {
		t.Fatalf("parsed UPDATE = %+v", st)
	}
	var want int64
	for _, c := range city {
		if c == "boston" {
			want++
		}
	}
	n, err := st.Exec(idx)
	if err != nil || n != want {
		t.Fatalf("UPDATE affected %d rows (err %v), want %d", n, err, want)
	}
	check, err := ParseTyped("SELECT COUNT(*) FROM t WHERE city = 'boston' AND fare = 5.25 AND dist = 7", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := check.Run(idx); err != nil || got != want {
		t.Fatalf("post-update COUNT = %d (err %v), want %d", got, err, want)
	}
	total, err := ParseTyped("SELECT COUNT(*) FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := total.Run(idx); err != nil || got != int64(len(city)) {
		t.Fatalf("row count after UPDATE = %d (err %v), want %d (updates preserve cardinality)",
			got, err, len(city))
	}
}

// TestMutationParseErrors pins the mutation grammar's rejection wording.
func TestMutationParseErrors(t *testing.T) {
	s, _, _, _, _ := typedFixture(t)
	cases := []struct {
		sql     string
		wantErr string
	}{
		{"INSERT INTO t VALUES (1)", `string column "city" needs a string literal`},
		{"INSERT t VALUES (1)", "INTO"},
		{"INSERT INTO t (city) VALUES ('boston')", "names 1 of 3 columns"},
		{"INSERT INTO t (city, city, dist) VALUES ('a', 'b', 1)", "listed twice"},
		{"INSERT INTO t VALUES ('boston', 1.234, 3)", "not representable"},
		{"INSERT INTO t VALUES ('gotham', 1.25, 3)", "dictionary"},
		{"INSERT INTO t VALUES ('boston', 1.25)", `expected ","`},
		{"INSERT INTO t VALUES ('boston', 1.25, 3) WHERE dist > 2", "unexpected trailing input"},
		{"DELETE price FROM t", "FROM"},
		{"DELETE FROM t WHERE", "expected"},
		{"DELETE FROM t LIMIT 5", "unexpected trailing input"},
		{"UPDATE t SET city = 5", `string column "city" needs a string literal`},
		{"UPDATE t SET city = 'gotham'", "dictionary"},
		{"UPDATE t SET fare = 1.234", "not representable"},
		{"UPDATE t SET fare = 'cheap'", `string literal on non-string column "fare"`},
		{"UPDATE t SET dist = 2.5", `float literal on non-float column "dist"`},
		{"UPDATE t SET nosuch = 1", "unknown column"},
		{"UPDATE t WHERE dist > 5", "SET"},
		{"UPDATE t SET dist = 5 LIMIT 3", "unexpected trailing input"},
	}
	for _, tc := range cases {
		_, err := ParseTyped(tc.sql, s)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error = %v, want containing %q", tc.sql, err, tc.wantErr)
		}
	}
}

// TestMutationDispatchErrors pins the Run/Exec split: mutations refuse Run,
// queries refuse Exec, and facades without the capability refuse Exec.
func TestMutationDispatchErrors(t *testing.T) {
	s, idx, _, _, _ := typedFixture(t)
	del, err := ParseTyped("DELETE FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := del.Run(idx); err == nil || !strings.Contains(err.Error(), "Exec") {
		t.Fatalf("Run(DELETE) error = %v, want Exec redirect", err)
	}
	sel, err := ParseTyped("SELECT COUNT(*) FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Exec(idx); err == nil || !strings.Contains(err.Error(), "Run or Select") {
		t.Fatalf("Exec(SELECT) error = %v, want Run redirect", err)
	}
	// A plain Flood has no insert path, so UPDATE is refused at Exec time.
	up, err := ParseTyped("UPDATE t SET dist = 1", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Exec(idx); err == nil || !strings.Contains(err.Error(), "does not support UPDATE") {
		t.Fatalf("Exec(UPDATE) on plain Flood = %v, want capability error", err)
	}
	ins, err := ParseTyped("INSERT INTO t VALUES ('boston', 1.25, 3)", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(idx); err == nil || !strings.Contains(err.Error(), "does not support INSERT") {
		t.Fatalf("Exec(INSERT) on plain Flood = %v, want capability error", err)
	}
	if _, _, err := ins.Run(idx); err == nil || !strings.Contains(err.Error(), "Exec") {
		t.Fatalf("Run(INSERT) error = %v, want Exec redirect", err)
	}
}

// TestInsertStatement covers the INSERT grammar end to end: literal
// encoding through the typed schema, the optional reordered column list,
// multi-row VALUES, and execution against an insert-capable facade.
func TestInsertStatement(t *testing.T) {
	s, idx, city, _, _ := typedFixture(t)
	base, ok := idx.(*flood.Flood)
	if !ok {
		t.Fatalf("typedFixture index is %T, want *flood.Flood", idx)
	}
	delta := flood.NewAdaptiveIndex(base, &flood.AdaptiveConfig{MergeFraction: -1})
	defer delta.Close()

	st, err := ParseTyped(
		"INSERT INTO t (dist, fare, city) VALUES (7, 5.25, 'boston'), (9, 1.25, 'nyc')", s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "insert" || len(st.InsertRows) != 2 {
		t.Fatalf("parsed INSERT = %+v", st)
	}
	n, err := st.Exec(delta)
	if err != nil || n != 2 {
		t.Fatalf("INSERT affected %d rows (err %v), want 2", n, err)
	}

	total, err := ParseTyped("SELECT COUNT(*) FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := total.Run(delta); err != nil || got != int64(len(city)+2) {
		t.Fatalf("row count after INSERT = %d (err %v), want %d", got, err, len(city)+2)
	}
	check, err := ParseTyped(
		"SELECT COUNT(*) FROM t WHERE city = 'boston' AND fare = 5.25 AND dist = 7", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := check.Run(delta); err != nil || got != 1 {
		t.Fatalf("inserted-row COUNT = %d (err %v), want 1 (column list reordering must land values in schema order)", got, err)
	}
}

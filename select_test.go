package flood

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fixtureLayout is a hand-picked layout over the typed fixture (grid on ts
// and city, sorted by fare) so Select tests skip the optimizer.
func fixtureLayout(fx *typedFixture) Layout {
	return Layout{GridDims: []int{0, 2}, GridCols: []int{8, 4}, SortDim: 1, Flatten: true}
}

// rowTuple renders one matched row as a comparable string over all four
// fixture columns.
func rowTuple(ts int64, fare float64, city string, pickup time.Time) string {
	return fmt.Sprintf("%d|%.2f|%s|%d", ts, fare, city, pickup.Unix())
}

// collectRows drains a Rows cursor (projected over all fixture columns) into
// sorted tuples.
func collectRows(t *testing.T, rows *Rows) []string {
	t.Helper()
	if got := rows.Columns(); !slices.Equal(got, []string{"ts", "fare", "city", "pickup"}) {
		t.Fatalf("projection = %v", got)
	}
	var out []string
	for rows.Next() {
		out = append(out, rowTuple(rows.Int64(0), rows.Float64(1), rows.String(2), rows.Time(3)))
	}
	if len(out) != rows.Len() {
		t.Fatalf("cursor yielded %d rows, Len says %d", len(out), rows.Len())
	}
	slices.Sort(out)
	return out
}

// bruteForce filters the fixture's logical rows (plus any extra logical rows
// appended after build) with the given predicate.
func bruteForce(fx *typedFixture, match func(i int) bool) []string {
	var out []string
	for i := range fx.ts {
		if match(i) {
			out = append(out, rowTuple(fx.ts[i], fx.fare[i], fx.city[i], fx.pickup[i]))
		}
	}
	slices.Sort(out)
	return out
}

// fixtureQueries is a mix of typed predicates exercising every encoder, each
// paired with its logical brute-force check.
func fixtureQueries(fx *typedFixture) []struct {
	name  string
	q     Query
	match func(i int) bool
} {
	t0 := time.Date(2023, 1, 3, 0, 0, 0, 0, time.UTC)
	t1 := time.Date(2023, 1, 17, 0, 0, 0, 0, time.UTC)
	return []struct {
		name  string
		q     Query
		match func(i int) bool
	}{
		{
			"string+float",
			fx.schema.Where().WithStringEquals("city", "nyc").WithFloatRange("fare", 1.5, 9.99).Query(),
			func(i int) bool { return fx.city[i] == "nyc" && fx.fare[i] >= 1.5 && fx.fare[i] <= 9.99 },
		},
		{
			"time-range",
			fx.schema.Where().WithTimeRange("pickup", t0, t1).Query(),
			func(i int) bool { return !fx.pickup[i].Before(t0) && !fx.pickup[i].After(t1) },
		},
		{
			"prefix+int",
			fx.schema.Where().WithPrefix("city", "s").WithIntRange("ts", 10_000, 70_000).Query(),
			func(i int) bool {
				return fx.city[i] != "" && fx.city[i][0] == 's' && fx.ts[i] >= 10_000 && fx.ts[i] <= 70_000
			},
		},
		{
			"unfiltered",
			fx.schema.Where().Query(),
			func(i int) bool { return true },
		},
		{
			"empty",
			fx.schema.Where().WithStringEquals("city", "gotham").Query(),
			func(i int) bool { return false },
		},
	}
}

func TestSelectMatchesBruteForceFlood(t *testing.T) {
	fx := newTypedFixture(t, 5000, 21)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureQueries(fx) {
		rows, st := idx.Select(tc.q)
		got := collectRows(t, rows)
		want := bruteForce(fx, tc.match)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Select returned %d rows, brute force %d", tc.name, len(got), len(want))
		}
		if st.Matched != int64(len(want)) {
			t.Fatalf("%s: stats matched %d, want %d", tc.name, st.Matched, len(want))
		}
		rows.Close()
	}
}

func TestSelectProjectionAndRowIDs(t *testing.T) {
	fx := newTypedFixture(t, 2000, 22)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithStringEquals("city", "boston").Query()
	rows, _ := idx.Select(q, "fare", "city")
	defer rows.Close()
	if got := rows.Columns(); !slices.Equal(got, []string{"fare", "city"}) {
		t.Fatalf("projection = %v", got)
	}
	last := int64(-1)
	for rows.Next() {
		if rows.String(1) != "boston" {
			t.Fatalf("row %d city = %q", rows.RowID(), rows.String(1))
		}
		if rows.RowID() <= last {
			t.Fatalf("row ids not ascending: %d after %d", rows.RowID(), last)
		}
		last = rows.RowID()
		if v := rows.Value(0); v != rows.Float64(0) {
			t.Fatalf("Value(0) = %v, Float64(0) = %v", v, rows.Float64(0))
		}
	}
	// Re-iteration after Reset sees the same count.
	n := rows.Len()
	rows.Reset()
	count := 0
	for rows.Next() {
		count++
	}
	if count != n {
		t.Fatalf("re-iteration saw %d rows, want %d", count, n)
	}

	// The same projection given as positions, as a parsed statement holds
	// it, names the same columns and yields the same rows.
	byPos, _, err := fx.schema.SelectColumns(context.Background(), idx, []Query{q}, nil, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer byPos.Close()
	if got := byPos.Columns(); !slices.Equal(got, []string{"fare", "city"}) {
		t.Fatalf("positional projection = %v", got)
	}
	if byPos.Len() != n {
		t.Fatalf("positional projection: %d rows, by name %d", byPos.Len(), n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a projection position past the last column did not panic")
			}
		}()
		fx.schema.SelectColumns(context.Background(), idx, []Query{q}, nil, []int{4})
	}()
}

func TestSelectDeltaWithPending(t *testing.T) {
	fx := newTypedFixture(t, 4000, 23)
	// Build the index over the first 3000 rows; insert the remaining 1000
	// through the insert log.
	cut := 3000
	head := &typedFixture{
		schema: fx.schema,
		ts:     fx.ts[:cut], fare: fx.fare[:cut], city: fx.city[:cut], pickup: fx.pickup[:cut],
	}
	b := fx.schema.NewTableBuilder()
	if err := b.SetInt64Column("ts", head.ts); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", head.fare); err != nil {
		t.Fatal(err)
	}
	if err := b.SetStringColumn("city", head.city); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTimeColumn("pickup", head.pickup); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildWithLayout(tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	d := unmerged(t, idx)
	for i := cut; i < len(fx.ts); i++ {
		row, err := fx.schema.EncodeRow(fx.ts[i], fx.fare[i], fx.city[i], fx.pickup[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	baseRows := int64(cut)
	for _, tc := range fixtureQueries(fx) {
		rows, _ := d.Select(tc.q)
		// Delta rows must sit past the base id range.
		sawDelta := false
		for rows.Next() {
			if rows.RowID() >= baseRows {
				sawDelta = true
			}
		}
		rows.Reset()
		got := collectRows(t, rows)
		want := bruteForce(fx, tc.match)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: delta Select returned %d rows, brute force %d", tc.name, len(got), len(want))
		}
		if tc.name == "unfiltered" && !sawDelta {
			t.Fatal("unfiltered select never reached the pending rows")
		}
		rows.Close()
	}
	// After a merge the same queries still agree.
	mergeNow(t, d)
	for _, tc := range fixtureQueries(fx) {
		rows, _ := d.Select(tc.q)
		if got, want := collectRows(t, rows), bruteForce(fx, tc.match); !slices.Equal(got, want) {
			t.Fatalf("%s: post-merge Select returned %d rows, brute force %d", tc.name, len(got), len(want))
		}
		rows.Close()
	}
}

// TestSelectBaselineEquivalence drives Select through the foreign adapter
// into every baseline: the rows are brute force's, and a LIMIT reaches the
// shared scan stage — three rows back, fewer rows scanned than without it.
func TestSelectBaselineEquivalence(t *testing.T) {
	fx := newTypedFixture(t, 3000, 24)
	for _, kind := range baselines() {
		bidx, err := BuildBaseline(kind, fx.tbl, BaselineOptions{PageSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range fixtureQueries(fx) {
			rows, full := fx.schema.Select(bidx, tc.q)
			got := collectRows(t, rows)
			want := bruteForce(fx, tc.match)
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s: baseline Select returned %d rows, brute force %d",
					kind, tc.name, len(got), len(want))
			}
			rows.Close()
			if len(want) < 100 {
				continue
			}
			rows, st, err := fx.schema.SelectContext(context.Background(), bidx, tc.q, &QueryOptions{Limit: 3})
			if err != nil || rows.Len() != 3 {
				t.Fatalf("%s/%s: LIMIT 3 returned %d rows, err %v", kind, tc.name, rows.Len(), err)
			}
			if st.Scanned >= full.Scanned {
				t.Fatalf("%s/%s: LIMIT 3 scanned %d rows, the unlimited select %d", kind, tc.name, st.Scanned, full.Scanned)
			}
			rows.Close()
		}
	}
}

func TestSelectOrUnionsDisjuncts(t *testing.T) {
	fx := newTypedFixture(t, 3000, 25)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	// Two overlapping rectangles: the union must contain each matching row
	// exactly once.
	q1 := fx.schema.Where().WithFloatRange("fare", 0, 60).Query()
	q2 := fx.schema.Where().WithFloatRange("fare", 40, 99.99).WithStringEquals("city", "nyc").Query()
	rows, _ := fx.schema.SelectOr(idx, []Query{q1, q2})
	defer rows.Close()
	got := collectRows(t, rows)
	want := bruteForce(fx, func(i int) bool {
		return fx.fare[i] <= 60 || (fx.fare[i] >= 40 && fx.city[i] == "nyc")
	})
	if !slices.Equal(got, want) {
		t.Fatalf("SelectOr returned %d rows, brute force %d", len(got), len(want))
	}
}

func TestSelectOrderByTopK(t *testing.T) {
	fx := newTypedFixture(t, 3000, 26)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithStringEquals("city", "chicago").Query()

	// Ground truth: all chicago fares sorted.
	var fares []float64
	for i := range fx.ts {
		if fx.city[i] == "chicago" {
			fares = append(fares, fx.fare[i])
		}
	}
	slices.Sort(fares)
	const k = 10

	rows, _ := idx.Select(q, "fare")
	rows.OrderBy("fare", k)
	var got []float64
	for rows.Next() {
		got = append(got, rows.Float64(0))
	}
	rows.Close()
	if !slices.Equal(got, fares[:k]) {
		t.Fatalf("OrderBy top-%d = %v, want %v", k, got, fares[:k])
	}

	rows, _ = idx.Select(q, "fare")
	rows.OrderByDesc("fare", k)
	got = got[:0]
	for rows.Next() {
		got = append(got, rows.Float64(0))
	}
	rows.Close()
	for i := range got {
		if want := fares[len(fares)-1-i]; got[i] != want {
			t.Fatalf("OrderByDesc[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Unlimited OrderBy is a full sort.
	rows, _ = idx.Select(q, "fare")
	rows.OrderBy("fare", 0)
	got = got[:0]
	for rows.Next() {
		got = append(got, rows.Float64(0))
	}
	rows.Close()
	if !slices.Equal(got, fares) {
		t.Fatalf("full OrderBy returned %d rows, want %d in sorted order", len(got), len(fares))
	}
}

// TestSelectZeroAllocSequential pins the acceptance criterion: a sequential
// Select of <=32K rows performs zero heap allocations per operation in
// steady state (pooled cursor, pooled scanner and scratch, reused id
// buffer).
func TestSelectZeroAllocSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	fx := newTypedFixture(t, 20_000, 27)
	// 20K rows stay below the parallel cutover: the sequential path.
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithFloatRange("fare", 10, 80).Query()

	// Warm the pools and size the id buffer.
	rows, _ := idx.Select(q, "ts", "fare")
	n := rows.Len()
	if n == 0 || n > 32*1024 {
		t.Fatalf("fixture query matches %d rows; want 0 < n <= 32768", n)
	}
	rows.Close()

	var sink int64
	allocs := testing.AllocsPerRun(50, func() {
		rows, _ := idx.Select(q, "ts", "fare")
		for rows.Next() {
			sink += rows.Int64(0)
		}
		rows.Close()
	})
	if allocs != 0 {
		t.Fatalf("sequential Select allocated %.1f times per op, want 0 (sink %d)", allocs, sink)
	}
}

func TestSelectUnknownColumnPanics(t *testing.T) {
	fx := newTypedFixture(t, 200, 28)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown projection column did not panic")
		}
	}()
	idx.Select(fx.schema.Where().Query(), "nope")
}

func TestSelectWithoutSchemaRawAccess(t *testing.T) {
	tbl := MustTable(t)
	idx, err := BuildWithLayout(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(2).WithRange(0, 10, 50)
	rows, _ := idx.Select(q)
	defer rows.Close()
	n := 0
	for rows.Next() {
		if v := rows.Int64(0); v < 10 || v > 50 {
			t.Fatalf("raw select row outside range: %d", v)
		}
		n++
	}
	if n != rows.Len() || n == 0 {
		t.Fatalf("raw select yielded %d rows (Len %d)", n, rows.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("typed accessor without schema did not panic")
		}
	}()
	rows.Reset()
	rows.Next()
	rows.Float64(0)
}

// MustTable builds a tiny raw two-column table for schema-less tests.
func MustTable(t *testing.T) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	a := make([]int64, 1000)
	b := make([]int64, 1000)
	for i := range a {
		a[i] = rng.Int63n(100)
		b[i] = rng.Int63n(1000)
	}
	tbl, err := NewTable([]string{"a", "b"}, [][]int64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSelectOrDeltaPinsBaseFirst(t *testing.T) {
	fx := newTypedFixture(t, 1000, 43)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	d := unmerged(t, idx)
	// Pending rows that ONLY the first disjunct matches: without base
	// pinning the insert log's table would register at id 0.
	row, err := fx.schema.EncodeRow(int64(999_999), 1.00, fx.city[0], fx.pickup[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	q1 := fx.schema.Where().WithIntRange("ts", 999_999, 999_999).Query() // log rows only
	q2 := fx.schema.Where().WithIntRange("ts", 0, 50_000).Query()        // base rows
	rows, _ := fx.schema.SelectOr(d, []Query{q1, q2})
	defer rows.Close()
	baseRows := int64(fx.tbl.NumRows())
	sawBase, sawDelta := false, false
	for rows.Next() {
		if rows.Int64(0) == 999_999 {
			sawDelta = true
			if rows.RowID() < baseRows {
				t.Fatalf("pending row got base-range id %d", rows.RowID())
			}
		} else {
			sawBase = true
			if rows.RowID() >= baseRows {
				t.Fatalf("base row got id %d past the base range", rows.RowID())
			}
		}
	}
	if !sawBase || !sawDelta {
		t.Fatalf("union missing a side: base=%v delta=%v", sawBase, sawDelta)
	}
}

func TestRowsCloseIdempotent(t *testing.T) {
	fx := newTypedFixture(t, 500, 44)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().Query()
	rows, _ := idx.Select(q)
	rows.Close()
	rows.Close() // double close must not double-pool the cursor
	// Two subsequent selects must get distinct cursors.
	r1, _ := idx.Select(q)
	r2, _ := idx.Select(q)
	if r1 == r2 {
		t.Fatal("double Close leaked the same cursor to two Selects")
	}
	r1.Close()
	r2.Close()
}

func TestOrderByUnknownColumnPanicsOnEmptyResult(t *testing.T) {
	fx := newTypedFixture(t, 200, 45)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithStringEquals("city", "gotham").Query() // matches nothing
	rows, _ := idx.Select(q)
	defer rows.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("OrderBy on a typo'd column must panic even with zero matches")
		}
	}()
	rows.OrderBy("no_such_col", 5)
}

package flood

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flood/internal/query"
)

// typedFixture is a small typed dataset: the built table plus the logical
// ground-truth columns for brute-force checks.
type typedFixture struct {
	schema *Schema
	tbl    *Table
	ts     []int64
	fare   []float64
	city   []string
	pickup []time.Time
}

var fixtureCities = []string{"atlanta", "boston", "chicago", "denver", "nyc", "oakland", "seattle"}

// newTypedFixture generates n rows over (ts int64, fare float64(2),
// city string, pickup time) and builds the table through the TableBuilder.
func newTypedFixture(t *testing.T, n int, seed int64) *typedFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fx := &typedFixture{
		schema: NewSchema().Int64("ts").Float64("fare", 2).String("city").TimeUnit("pickup", time.Second),
	}
	epoch := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		fx.ts = append(fx.ts, rng.Int63n(100_000))
		fx.fare = append(fx.fare, float64(rng.Intn(10_000))/100)
		fx.city = append(fx.city, fixtureCities[rng.Intn(len(fixtureCities))])
		fx.pickup = append(fx.pickup, epoch.Add(time.Duration(rng.Int63n(30*24*3600))*time.Second))
	}
	b := fx.schema.NewTableBuilder()
	if err := b.SetInt64Column("ts", fx.ts); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", fx.fare); err != nil {
		t.Fatal(err)
	}
	if err := b.SetStringColumn("city", fx.city); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTimeColumn("pickup", fx.pickup); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fx.tbl = tbl
	return fx
}

func TestTableBuilderAppendRowRoundTrip(t *testing.T) {
	s := NewSchema().Int64("id").Float64("price", 2).String("name").TimeUnit("at", time.Nanosecond)
	b := s.NewTableBuilder()
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	rows := []struct {
		id    int64
		price float64
		name  string
		at    time.Time
	}{
		{1, 19.99, "widget", at},
		{2, 0.5, "gadget", at.Add(time.Hour)},
		{3, 123.45, "widget", at.Add(2 * time.Hour)},
	}
	for _, r := range rows {
		if err := b.AppendRow(r.id, r.price, r.name, r.at); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 || tbl.NumCols() != 4 {
		t.Fatalf("table is %dx%d, want 3x4", tbl.NumRows(), tbl.NumCols())
	}
	for i, r := range rows {
		if got := s.DecodeValue(0, tbl.Get(0, i)); got != r.id {
			t.Fatalf("row %d id = %v", i, got)
		}
		if got := s.DecodeValue(1, tbl.Get(1, i)); got != r.price {
			t.Fatalf("row %d price = %v, want %v", i, got, r.price)
		}
		if got := s.DecodeValue(2, tbl.Get(2, i)); got != r.name {
			t.Fatalf("row %d name = %v", i, got)
		}
		if got := s.DecodeValue(3, tbl.Get(3, i)).(time.Time); !got.Equal(r.at) {
			t.Fatalf("row %d at = %v, want %v", i, got, r.at)
		}
	}
	// Dictionary codes preserve lexicographic order.
	if tbl.Get(2, 1) >= tbl.Get(2, 0) {
		t.Fatal("gadget should encode below widget")
	}
}

func TestTableBuilderErrors(t *testing.T) {
	s := NewSchema().Int64("a").Float64("b", 1)
	b := s.NewTableBuilder()
	if err := b.AppendRow(int64(1)); err == nil {
		t.Fatal("short row accepted")
	}
	if err := b.AppendRow("nope", 1.5); err == nil || !strings.Contains(err.Error(), `column "a"`) {
		t.Fatalf("wrong-kind row error = %v", err)
	}
	if err := b.SetInt64Column("missing", nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := b.SetFloat64Column("a", nil); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if err := b.AppendRow(int64(1), 2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFloat64Column("b", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestSchemaPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate column", func() { NewSchema().Int64("a").Int64("a") })
	mustPanic("empty name", func() { NewSchema().Int64("") })
	mustPanic("bad digits", func() { NewSchema().Float64("f", 99) })
	mustPanic("bad unit", func() { NewSchema().TimeUnit("t", -time.Second) })
	s := NewSchema().Int64("a").String("c")
	mustPanic("unknown predicate column", func() { s.Where().WithIntEquals("zzz", 1) })
	mustPanic("kind mismatch predicate", func() { s.Where().WithFloatRange("a", 0, 1) })
	mustPanic("unfitted dictionary", func() { s.Where().WithStringEquals("c", "x") })
}

func TestTypedPredicatesEncode(t *testing.T) {
	fx := newTypedFixture(t, 2000, 11)
	// Brute-force a combined typed predicate against the logical columns.
	lo, hi := 10.00, 49.99
	t0 := time.Date(2023, 1, 5, 0, 0, 0, 0, time.UTC)
	t1 := time.Date(2023, 1, 20, 0, 0, 0, 0, time.UTC)
	q := fx.schema.Where().
		WithFloatRange("fare", lo, hi).
		WithStringEquals("city", "nyc").
		WithTimeRange("pickup", t0, t1).
		Query()
	want := 0
	for i := range fx.ts {
		if fx.fare[i] >= lo && fx.fare[i] <= hi && fx.city[i] == "nyc" &&
			!fx.pickup[i].Before(t0) && !fx.pickup[i].After(t1) {
			want++
		}
	}
	got := int64(0)
	sc := query.GetScanner(fx.tbl)
	_, got = sc.ScanRange(q, q.FilteredDims(), 0, fx.tbl.NumRows(), query.NewCount())
	sc.Release()
	if got != int64(want) {
		t.Fatalf("typed predicate matched %d rows, brute force says %d", got, want)
	}

	// Unknown dictionary value: unsatisfiable, not an error.
	if q := fx.schema.Where().WithStringEquals("city", "gotham").Query(); !q.Empty() {
		t.Fatal("unknown string should make the query unsatisfiable")
	}
	// Over-precise float endpoints round conservatively inward.
	q = fx.schema.Where().WithFloatRange("fare", 1.001, 1.999).Query()
	r := q.Ranges[fx.schema.ColumnIndex("fare")]
	if r.Min != 101 || r.Max != 199 {
		t.Fatalf("float range encoded to [%d, %d], want [101, 199]", r.Min, r.Max)
	}
}

func TestSchemaEncodeRow(t *testing.T) {
	fx := newTypedFixture(t, 100, 5)
	row, err := fx.schema.EncodeRow(int64(42), 3.50, "denver", fx.pickup[0])
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 42 || row[1] != 350 {
		t.Fatalf("encoded row = %v", row)
	}
	if got := fx.schema.DecodeValue(2, row[2]); got != "denver" {
		t.Fatalf("city decoded to %v", got)
	}
	if _, err := fx.schema.EncodeRow(int64(1), 2.0, "gotham", fx.pickup[0]); err == nil {
		t.Fatal("unknown dictionary value should fail EncodeRow")
	}
	if _, err := fx.schema.EncodeRow(int64(1)); err == nil {
		t.Fatal("short row should fail EncodeRow")
	}
	// A float the 2-digit fare column cannot hold exactly is refused, not
	// stored as a rounded neighbour; floodsql's INSERT answers the same
	// (TestInsertFloatMatchesEncodeRow).
	for _, v := range []float64{1.005, 2.675, math.NaN(), 1e300} {
		if row, err := fx.schema.EncodeRow(int64(1), v, "denver", fx.pickup[0]); err == nil {
			t.Errorf("EncodeRow fare %v = %d, want an error", v, row[1])
		}
	}
	for v, want := range map[float64]int64{1.25: 125, 0.1: 10, 9.99: 999} {
		if row, err := fx.schema.EncodeRow(int64(1), v, "denver", fx.pickup[0]); err != nil || row[1] != want {
			t.Errorf("EncodeRow fare %v = (%v, %v), want code %d", v, row, err, want)
		}
	}
}

func TestSchemaInferredFloatDigits(t *testing.T) {
	s := NewSchema().Float64("v", -1)
	b := s.NewTableBuilder()
	if err := b.SetFloat64Column("v", []float64{1.5, 2.25, 3.75}); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Get(0, 1); got != 225 {
		t.Fatalf("inferred scaling stored %d for 2.25, want 225", got)
	}
	q := s.Where().WithFloatRange("v", 2.0, 3.0).Query()
	if r := q.Ranges[0]; r.Min != 200 || r.Max != 300 {
		t.Fatalf("inferred-digit predicate encoded to [%d, %d]", r.Min, r.Max)
	}
}

func TestFloatBoundsClampOutOfRange(t *testing.T) {
	fx := newTypedFixture(t, 500, 41)
	// An absurdly large upper bound must behave like +infinity, not wrap
	// negative and empty the result.
	q := fx.schema.Where().WithFloatRange("fare", math.Inf(-1), 1e18).Query()
	if r := q.Ranges[fx.schema.ColumnIndex("fare")]; r.Max != PosInf {
		t.Fatalf("upper bound 1e18 encoded Max = %d, want PosInf", r.Max)
	}
	q = fx.schema.Where().WithFloatRange("fare", -1e18, math.Inf(1)).Query()
	if r := q.Ranges[fx.schema.ColumnIndex("fare")]; r.Min != NegInf {
		t.Fatalf("lower bound -1e18 encoded Min = %d, want NegInf", r.Min)
	}
	// A range entirely past the representable domain clamps to
	// [PosInf, PosInf] — no storable code can match it.
	q = fx.schema.Where().WithFloatRange("fare", 1e18, 2e18).Query()
	if r := q.Ranges[fx.schema.ColumnIndex("fare")]; r.Min != PosInf {
		t.Fatalf("out-of-domain lower bound encoded to %d, want PosInf", r.Min)
	}
}

func TestSchemaSelectAttachesSchemaToSchemalessIndex(t *testing.T) {
	fx := newTypedFixture(t, 500, 42)
	// Build WITHOUT Options.Schema: idx.Select alone would serve raw rows.
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithStringEquals("city", "denver").Query()
	rows, _ := fx.schema.Select(idx, q, "city")
	defer rows.Close()
	if rows.Len() == 0 {
		t.Fatal("no denver rows in the fixture")
	}
	for rows.Next() {
		if rows.String(0) != "denver" { // must not panic: schema came from the caller
			t.Fatalf("decoded city %q", rows.String(0))
		}
	}
}

func TestAppendRowAtomicOnTypeError(t *testing.T) {
	s := NewSchema().String("city").Float64("fare", 2).Int64("dist")
	b := s.NewTableBuilder()
	// Fails on the LAST column: nothing may be appended.
	if err := b.AppendRow("nyc", 12.5, "oops"); err == nil {
		t.Fatal("bad row accepted")
	}
	if err := b.AppendRow("nyc", 12.5, int64(3)); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatalf("builder corrupted by failed append: %v", err)
	}
	if tbl.NumRows() != 1 {
		t.Fatalf("table has %d rows, want 1 (failed append must not leak values)", tbl.NumRows())
	}
}

func TestTimeRangeDirectedRounding(t *testing.T) {
	s := NewSchema().TimeUnit("at", time.Minute)
	b := s.NewTableBuilder()
	t0 := time.Date(2024, 1, 1, 10, 0, 0, 0, time.UTC)
	if err := b.SetTimeColumn("at", []time.Time{t0, t0.Add(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	// A lower bound 30s past the tick must exclude the 10:00 row.
	q := s.Where().WithTimeRange("at", t0.Add(30*time.Second), t0.Add(2*time.Minute)).Query()
	enc := s.fields[0].tcodec
	if r := q.Ranges[0]; r.Min != enc.EncodeValue(t0.Add(time.Minute)) {
		t.Fatalf("sub-unit lower bound encoded to tick %d, want the 10:01 tick", r.Min)
	}
	// An upper bound 30s past a tick still includes that tick.
	q = s.Where().WithTimeRange("at", t0, t0.Add(90*time.Second)).Query()
	if r := q.Ranges[0]; r.Max != enc.EncodeValue(t0.Add(time.Minute)) {
		t.Fatalf("sub-unit upper bound encoded to tick %d, want the 10:01 tick", r.Max)
	}
}

package query

import (
	"math/rand"
	"testing"
	"time"

	"flood/internal/colstore"
)

func TestQueryConstruction(t *testing.T) {
	q := NewQuery(3).WithRange(0, 10, 20).WithEquals(2, 5)
	if q.NumFiltered() != 2 {
		t.Fatalf("NumFiltered = %d, want 2", q.NumFiltered())
	}
	dims := q.FilteredDims()
	if len(dims) != 2 || dims[0] != 0 || dims[1] != 2 {
		t.Fatalf("FilteredDims = %v", dims)
	}
	if !q.Matches([]int64{15, 999, 5}) {
		t.Fatal("point should match")
	}
	if q.Matches([]int64{15, 999, 6}) {
		t.Fatal("point should not match (equality dim)")
	}
	if q.Matches([]int64{9, 0, 5}) {
		t.Fatal("point should not match (range dim)")
	}
}

func TestQueryEmpty(t *testing.T) {
	q := NewQuery(2).WithRange(0, 10, 5)
	if !q.Empty() {
		t.Fatal("inverted range should be empty")
	}
	if NewQuery(2).WithRange(0, 5, 10).Empty() {
		t.Fatal("valid range should not be empty")
	}
}

func TestQueryUnfilteredMatchesEverything(t *testing.T) {
	q := NewQuery(2)
	if !q.Matches([]int64{NegInf, PosInf}) {
		t.Fatal("unfiltered query must match extreme points")
	}
	if q.NumFiltered() != 0 || q.FilteredDims() != nil {
		t.Fatal("unfiltered query should report no filtered dims")
	}
}

func buildTestTable(t testing.TB, n int, seed int64) (*colstore.Table, [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]int64, 3)
	for c := range data {
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(100)
		}
	}
	tbl, err := colstore.NewTable([]string{"x", "y", "z"}, data)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, data
}

func TestScannerMatchesBruteForce(t *testing.T) {
	tbl, data := buildTestTable(t, 1000, 11)
	q := NewQuery(3).WithRange(0, 20, 60).WithRange(2, 10, 80)
	sc := NewScanner(tbl)
	agg := NewCount()
	scanned, matched := sc.ScanRange(q, q.FilteredDims(), 0, 1000, agg)
	var want int64
	for i := 0; i < 1000; i++ {
		if q.Matches([]int64{data[0][i], data[1][i], data[2][i]}) {
			want++
		}
	}
	if matched != want || agg.Result() != want {
		t.Fatalf("matched = %d, agg = %d, want %d", matched, agg.Result(), want)
	}
	if scanned != 1000 {
		t.Fatalf("scanned = %d, want 1000", scanned)
	}
}

func TestScannerSubRanges(t *testing.T) {
	tbl, data := buildTestTable(t, 700, 13)
	q := NewQuery(3).WithRange(1, 30, 70)
	sc := NewScanner(tbl)
	agg := NewSum(0)
	var scanned, matched int64
	for _, rg := range [][2]int{{0, 100}, {100, 355}, {355, 700}} {
		s, m := sc.ScanRange(q, q.FilteredDims(), rg[0], rg[1], agg)
		scanned += s
		matched += m
	}
	var want int64
	var wantMatched int64
	for i := 0; i < 700; i++ {
		if v := data[1][i]; v >= 30 && v <= 70 {
			want += data[0][i]
			wantMatched++
		}
	}
	if agg.Result() != want || matched != wantMatched || scanned != 700 {
		t.Fatalf("sum=%d want %d, matched=%d want %d, scanned=%d",
			agg.Result(), want, matched, wantMatched, scanned)
	}
}

func TestScannerExactRangeUsesPrefix(t *testing.T) {
	tbl, data := buildTestTable(t, 512, 17)
	tbl.EnableAggregate(1)
	sc := NewScanner(tbl)
	agg := NewSum(1)
	scanned, matched := sc.ScanExactRange(100, 300, agg)
	var want int64
	for i := 100; i < 300; i++ {
		want += data[1][i]
	}
	if agg.Result() != want || scanned != 200 || matched != 200 {
		t.Fatalf("exact range sum = %d (want %d), scanned=%d matched=%d", agg.Result(), want, scanned, matched)
	}
}

func TestScannerEmptyFilterIsExact(t *testing.T) {
	tbl, _ := buildTestTable(t, 256, 19)
	sc := NewScanner(tbl)
	agg := NewCount()
	scanned, matched := sc.ScanRange(NewQuery(3), nil, 0, 256, agg)
	if scanned != 256 || matched != 256 || agg.Result() != 256 {
		t.Fatalf("unfiltered scan: scanned=%d matched=%d agg=%d", scanned, matched, agg.Result())
	}
}

func TestScannerDegenerateRanges(t *testing.T) {
	tbl, _ := buildTestTable(t, 100, 23)
	sc := NewScanner(tbl)
	agg := NewCount()
	if s, m := sc.ScanRange(NewQuery(3), nil, 50, 50, agg); s != 0 || m != 0 {
		t.Fatalf("empty range scanned %d matched %d", s, m)
	}
	if s, m := sc.ScanExactRange(70, 60, agg); s != 0 || m != 0 {
		t.Fatalf("inverted exact range scanned %d matched %d", s, m)
	}
}

func TestAggregators(t *testing.T) {
	tbl, data := buildTestTable(t, 300, 29)
	cnt := NewCount()
	sum := NewSum(2)
	mn := NewMin(2)
	for i := 0; i < 300; i++ {
		addRow(cnt, tbl, i)
		addRow(sum, tbl, i)
		addRow(mn, tbl, i)
	}
	var wantSum, wantMin int64
	wantMin = PosInf
	for _, v := range data[2] {
		wantSum += v
		if v < wantMin {
			wantMin = v
		}
	}
	if cnt.Result() != 300 || sum.Result() != wantSum || mn.Result() != wantMin {
		t.Fatalf("aggregators wrong: %d %d %d", cnt.Result(), sum.Result(), mn.Result())
	}
	cnt.Reset()
	sum.Reset()
	mn.Reset()
	if cnt.Result() != 0 || sum.Result() != 0 || mn.Result() != PosInf {
		t.Fatal("Reset did not clear accumulators")
	}
}

func TestSumExactRangeWithoutPrefix(t *testing.T) {
	tbl, data := buildTestTable(t, 400, 31)
	sum := NewSum(0)
	sum.AddExactRange(tbl, 37, 391)
	var want int64
	for i := 37; i < 391; i++ {
		want += data[0][i]
	}
	if sum.Result() != want {
		t.Fatalf("AddExactRange without prefix = %d, want %d", sum.Result(), want)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Scanned: 1000, Matched: 100}
	if s.ScanOverhead() != 10 {
		t.Fatalf("ScanOverhead = %f", s.ScanOverhead())
	}
	if (Stats{}).ScanOverhead() != 0 {
		t.Fatal("empty stats overhead should be 0")
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.Scanned != 2000 || agg.Matched != 200 {
		t.Fatal("Stats.Add broken")
	}
}

// TestStatsSetWall: concurrent parts' summed stats keep their counts, take
// the wall time as Total, and scale phase times down to fit under it; parts
// that did not overlap keep their phase times.
func TestStatsSetWall(t *testing.T) {
	part := Stats{Scanned: 10, Matched: 4, IndexTime: 20 * time.Microsecond, ProjectTime: 5 * time.Microsecond,
		RefineTime: 15 * time.Microsecond, ScanTime: 80 * time.Microsecond, Total: 100 * time.Microsecond}
	var s Stats
	for i := 0; i < 4; i++ {
		s.Add(part)
	}
	s.SetWall(200 * time.Microsecond) // four 100 µs parts overlapped into 200 µs
	want := Stats{Scanned: 40, Matched: 16, IndexTime: 40 * time.Microsecond, ProjectTime: 10 * time.Microsecond,
		RefineTime: 30 * time.Microsecond, ScanTime: 160 * time.Microsecond, Total: 200 * time.Microsecond}
	if s != want {
		t.Fatalf("SetWall over overlapping parts = %+v, want %+v", s, want)
	}
	s = part
	s.SetWall(130 * time.Microsecond) // the call outlasted its one part
	if want := part; s.ScanTime != want.ScanTime || s.IndexTime != want.IndexTime || s.Total != 130*time.Microsecond {
		t.Fatalf("SetWall over a longer wall = %+v, want phases kept and Total 130µs", s)
	}
}

func TestScannerInvertedRangeMatchesNothing(t *testing.T) {
	// Direct ScanRange callers may pass inverted ranges; the branchless
	// unsigned compares must not wrap them into match-everything.
	tbl, _ := buildTestTable(t, 300, 37)
	q := NewQuery(3).WithRange(1, 60, 40)
	sc := NewScanner(tbl)
	agg := NewCount()
	if s, m := sc.ScanRange(q, q.FilteredDims(), 0, 300, agg); s != 0 || m != 0 || agg.Result() != 0 {
		t.Fatalf("inverted range: scanned=%d matched=%d agg=%d, want all 0", s, m, agg.Result())
	}
}

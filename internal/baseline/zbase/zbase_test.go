package zbase

import (
	"math/rand"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

func buildBase(t *testing.T, n, pageSize int) (*Base, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	data := make([][]int64, 2)
	for c := range data {
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(1 << 16)
		}
	}
	tbl := colstore.MustNewTable([]string{"x", "y"}, data)
	b, err := Build(tbl, []int{0, 1}, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return b, data
}

func TestBuildSortsByCode(t *testing.T) {
	b, _ := buildBase(t, 5000, 256)
	point := make([]int64, 2)
	var prev uint64
	for r := 0; r < b.T.NumRows(); r++ {
		point[0] = b.T.Get(0, r)
		point[1] = b.T.Get(1, r)
		z := b.Enc.Encode(point)
		if r > 0 && z < prev {
			t.Fatalf("row %d: codes not sorted (%d < %d)", r, z, prev)
		}
		prev = z
	}
}

func TestPagesPartitionRows(t *testing.T) {
	b, _ := buildBase(t, 5000, 256)
	if b.NumPages() != (5000+255)/256 {
		t.Fatalf("NumPages = %d", b.NumPages())
	}
	total := 0
	for p := 0; p < b.NumPages(); p++ {
		s, e := b.PageRange(p)
		if e <= s {
			t.Fatalf("page %d empty range [%d, %d)", p, s, e)
		}
		total += e - s
	}
	if total != 5000 {
		t.Fatalf("pages cover %d rows, want 5000", total)
	}
}

func TestPageForBrackets(t *testing.T) {
	b, _ := buildBase(t, 3000, 128)
	for p := 0; p < b.NumPages(); p++ {
		if got := b.PageFor(b.PageMinZ[p]); got != p {
			t.Fatalf("PageFor(min of page %d) = %d", p, got)
		}
	}
	if b.PageFor(0) != 0 {
		t.Fatal("code before all pages should map to page 0")
	}
	if b.PageFor(^uint64(0)) != b.NumPages()-1 {
		t.Fatal("huge code should map to last page")
	}
}

func TestQuantizedRectClampsToDomain(t *testing.T) {
	b, _ := buildBase(t, 2000, 256)
	// Unfiltered query: rect covers the full domain.
	lo, hi, ok := b.QuantizedRect(query.NewQuery(2))
	if !ok {
		t.Fatal("unfiltered rect should be non-empty")
	}
	for i := range lo {
		if lo[i] != b.Enc.Part(i, b.Mins[i]) || hi[i] != b.Enc.Part(i, b.Maxs[i]) {
			t.Fatalf("dim %d: rect [%d, %d] does not span domain", i, lo[i], hi[i])
		}
	}
	// Filter extending past the domain clamps.
	q := query.NewQuery(2).WithRange(0, -1<<40, 1<<40)
	lo2, hi2, ok := b.QuantizedRect(q)
	if !ok || lo2[0] != lo[0] || hi2[0] != hi[0] {
		t.Fatal("out-of-domain endpoints should clamp to the domain")
	}
	// Filter missing the domain entirely is empty.
	if _, _, ok := b.QuantizedRect(query.NewQuery(2).WithRange(1, 1<<40, 1<<41)); ok {
		t.Fatal("rect beyond the domain should be empty")
	}
	if _, _, ok := b.QuantizedRect(query.NewQuery(2).WithRange(1, -10, -5)); ok {
		t.Fatal("rect below the domain should be empty")
	}
}

func TestBuildValidation(t *testing.T) {
	tbl := colstore.MustNewTable([]string{"x"}, [][]int64{{1, 2, 3}})
	if _, err := Build(tbl, nil, 16); err == nil {
		t.Fatal("no dims should fail")
	}
}

func TestDefaultPageSize(t *testing.T) {
	tbl := colstore.MustNewTable([]string{"x"}, [][]int64{make([]int64, 3000)})
	b, err := Build(tbl, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumPages() != (3000+defaultPageSize-1)/defaultPageSize {
		t.Fatalf("default page size not applied: %d pages", b.NumPages())
	}
}

package query

import (
	"math/rand"
	"testing"
	"time"

	"flood/internal/colstore"
)

// equivTable builds a random table mixing bitmap-indexable low-cardinality
// dims with wide ones, then enables bitmap indexes so the bitmap kernel takes
// the precomputed-AND path on the low-card dims while the scalar kernel
// decodes everything.
func equivTable(rng *rand.Rand, n int) (*colstore.Table, [][]int64) {
	cards := []int64{4, 13, 1 << 20, 50} // dims 0,1 indexed; 2 wide; 3 indexed
	data := make([][]int64, len(cards))
	for c, card := range cards {
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(card) - card/2
		}
	}
	names := []string{"a", "b", "c", "d"}
	tbl, err := colstore.NewTable(names, data)
	if err != nil {
		panic(err)
	}
	tbl.EnableBitmapIndexes(64)
	return tbl, data
}

// equivQuery draws a random predicate: per dim, one of unfiltered, a narrow
// range, an equality, a full-range accept, or an empty range.
func equivQuery(rng *rand.Rand) Query {
	q := NewQuery(4)
	cards := []int64{4, 13, 1 << 20, 50}
	for d, card := range cards {
		lo := -card / 2
		switch rng.Intn(6) {
		case 0: // unfiltered
		case 1: // narrow range
			a := lo + rng.Int63n(card)
			q = q.WithRange(d, a, a+rng.Int63n(card/2+1))
		case 2: // equality
			q = q.WithEquals(d, lo+rng.Int63n(card))
		case 3: // contains the whole domain (zone maps exact-accept)
			q = q.WithRange(d, NegInf, PosInf)
		case 4: // half-open
			q = q.WithRange(d, lo+rng.Int63n(card), PosInf)
		case 5: // matches nothing
			q = q.WithRange(d, lo+2*card, lo+3*card)
		}
	}
	return q
}

// runKernel scans [start, end) with the chosen kernel and an optional row
// limit, returning the collected ids and stats.
func runKernel(t *colstore.Table, q Query, start, end, limit int, scalar bool) ([]int64, int64, int64) {
	sc := NewScanner(t)
	sc.SetScalarKernel(scalar)
	var ctl *Control
	if limit > 0 {
		ctl = GetControl(nil, limit, time.Time{})
		sc.SetControl(ctl)
		defer ctl.Release()
	}
	rc := NewRowCollector()
	rc.PinSource(t)
	scanned, matched := sc.ScanRange(q, q.FilteredDims(), start, end, rc)
	ids := append([]int64(nil), rc.IDs()...)
	return ids, scanned, matched
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBitmapKernelEquivalence is the cross-kernel property test: over random
// tables (sizes straddling block boundaries, including sub-block tables),
// random predicates (empty, full, narrow, equality), and random scan bounds,
// the word-packed bitmap kernel and the selection-vector scalar kernel must
// deliver the identical matched rows in the identical order with identical
// stats.
func TestBitmapKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{
		1, 63, 64, 65,
		colstore.BlockSize - 1, colstore.BlockSize, colstore.BlockSize + 1,
		3*colstore.BlockSize + 17, 8 * colstore.BlockSize,
	}
	for _, n := range sizes {
		tbl, data := equivTable(rng, n)
		for trial := 0; trial < 60; trial++ {
			q := equivQuery(rng)
			start := rng.Intn(n)
			end := start + 1 + rng.Intn(n-start)
			gotIDs, gotScanned, gotMatched := runKernel(tbl, q, start, end, 0, false)
			wantIDs, wantScanned, wantMatched := runKernel(tbl, q, start, end, 0, true)
			if !equalIDs(gotIDs, wantIDs) {
				t.Fatalf("n=%d trial=%d [%d,%d): bitmap ids %v != scalar ids %v (query %+v)",
					n, trial, start, end, gotIDs, wantIDs, q.Ranges)
			}
			if gotScanned != wantScanned || gotMatched != wantMatched {
				t.Fatalf("n=%d trial=%d: stats (%d,%d) != (%d,%d)",
					n, trial, gotScanned, gotMatched, wantScanned, wantMatched)
			}
			// And both kernels agree with the row-by-row oracle.
			var want int64
			row := make([]int64, len(data))
			for i := start; i < end; i++ {
				for c := range data {
					row[c] = data[c][i]
				}
				if q.Matches(row) {
					want++
				}
			}
			if gotMatched != want {
				t.Fatalf("n=%d trial=%d: matched %d, brute force %d", n, trial, gotMatched, want)
			}
		}
	}
}

// TestBitmapKernelEquivalenceLimit checks LIMIT pushdown: with a delivery
// budget attached, both kernels deliver the same prefix of the same survivor
// sequence.
func TestBitmapKernelEquivalenceLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 6*colstore.BlockSize + 29
	tbl, _ := equivTable(rng, n)
	for trial := 0; trial < 120; trial++ {
		q := equivQuery(rng)
		limit := 1 + rng.Intn(2*colstore.BlockSize)
		gotIDs, _, gotMatched := runKernel(tbl, q, 0, n, limit, false)
		wantIDs, _, wantMatched := runKernel(tbl, q, 0, n, limit, true)
		if !equalIDs(gotIDs, wantIDs) || gotMatched != wantMatched {
			t.Fatalf("trial=%d limit=%d: bitmap (%d ids, matched %d) != scalar (%d ids, matched %d)",
				trial, limit, len(gotIDs), gotMatched, len(wantIDs), wantMatched)
		}
		if len(gotIDs) > limit {
			t.Fatalf("trial=%d: delivered %d ids over limit %d", trial, len(gotIDs), limit)
		}
		// The limited run must be a prefix of the unlimited one.
		fullIDs, _, _ := runKernel(tbl, q, 0, n, 0, false)
		if want := min(limit, len(fullIDs)); len(gotIDs) != want || !equalIDs(gotIDs, fullIDs[:want]) {
			t.Fatalf("trial=%d limit=%d: limited ids are not the unlimited prefix", trial, limit)
		}
	}
}

// TestBitmapKernelAggregates runs both kernels through each built-in
// aggregator (exercising the run-length fast paths) and compares results.
func TestBitmapKernelAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 5*colstore.BlockSize + 7
	tbl, _ := equivTable(rng, n)
	aggs := func() []Mergeable {
		return []Mergeable{NewCount(), NewSum(2), NewMin(2), NewMax(2)}
	}
	for trial := 0; trial < 60; trial++ {
		q := equivQuery(rng)
		got, want := aggs(), aggs()
		for i := range got {
			sc := NewScanner(tbl)
			sc.ScanRange(q, q.FilteredDims(), 0, n, got[i])
			sc.SetScalarKernel(true)
			sc.ScanRange(q, q.FilteredDims(), 0, n, want[i])
			if got[i].Result() != want[i].Result() {
				t.Fatalf("trial=%d agg=%T: bitmap %d != scalar %d", trial, got[i], got[i].Result(), want[i].Result())
			}
		}
	}
}

// TestSelInitMaskBounds pins the selection-bitmap initializer across all
// partial-block bounds.
func TestSelInitMaskBounds(t *testing.T) {
	for i0 := 0; i0 <= colstore.BlockSize; i0 += 7 {
		for i1 := i0; i1 <= colstore.BlockSize; i1 += 9 {
			var sel colstore.BlockBitmap
			selInit(&sel, i0, i1)
			if got, want := selCount(&sel), i1-i0; got != want {
				t.Fatalf("selInit(%d,%d): %d bits set, want %d", i0, i1, got, want)
			}
			for i := 0; i < colstore.BlockSize; i++ {
				set := sel[i/64]&(1<<uint(i%64)) != 0
				if set != (i >= i0 && i < i1) {
					t.Fatalf("selInit(%d,%d): bit %d = %v", i0, i1, i, set)
				}
			}
		}
	}
}

// tombWords builds a tombstone bitmap over n rows where each row is dead
// with probability density, returning the packed words, the per-row dead
// flags, and the actual dead count.
func tombWords(rng *rand.Rand, n int, density float64) ([]uint64, []bool, int) {
	words := make([]uint64, (n+63)/64)
	dead := make([]bool, n)
	count := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			words[i>>6] |= 1 << uint(i&63)
			dead[i] = true
			count++
		}
	}
	return words, dead, count
}

// runKernelTomb is runKernel with a tombstone mask attached.
func runKernelTomb(t *colstore.Table, q Query, tomb []uint64, start, end, limit int, scalar bool) ([]int64, int64, int64) {
	sc := NewScanner(t)
	sc.SetScalarKernel(scalar)
	sc.SetTombstones(tomb)
	var ctl *Control
	if limit > 0 {
		ctl = GetControl(nil, limit, time.Time{})
		sc.SetControl(ctl)
		defer ctl.Release()
	}
	rc := NewRowCollector()
	rc.PinSource(t)
	scanned, matched := sc.ScanRange(q, q.FilteredDims(), start, end, rc)
	ids := append([]int64(nil), rc.IDs()...)
	return ids, scanned, matched
}

// TestBitmapKernelEquivalenceTombstones extends the cross-kernel property to
// deletion masking: at tombstone densities from none to nearly-everything,
// both kernels must deliver identical survivors, stats, aggregates, and
// LIMIT prefixes, and must never deliver a tombstoned row.
func TestBitmapKernelEquivalenceTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 6*colstore.BlockSize + 29
	tbl, data := equivTable(rng, n)
	for _, density := range []float64{0, 0.01, 0.5, 0.99} {
		words, dead, _ := tombWords(rng, n, density)
		for trial := 0; trial < 40; trial++ {
			q := equivQuery(rng)
			start := rng.Intn(n)
			end := start + 1 + rng.Intn(n-start)
			gotIDs, gotScanned, gotMatched := runKernelTomb(tbl, q, words, start, end, 0, false)
			wantIDs, wantScanned, wantMatched := runKernelTomb(tbl, q, words, start, end, 0, true)
			if !equalIDs(gotIDs, wantIDs) {
				t.Fatalf("density=%v trial=%d [%d,%d): bitmap ids %v != scalar ids %v (query %+v)",
					density, trial, start, end, gotIDs, wantIDs, q.Ranges)
			}
			if gotScanned != wantScanned || gotMatched != wantMatched {
				t.Fatalf("density=%v trial=%d: stats (%d,%d) != (%d,%d)",
					density, trial, gotScanned, gotMatched, wantScanned, wantMatched)
			}
			// Brute-force oracle over live rows only.
			var want int64
			row := make([]int64, len(data))
			for i := start; i < end; i++ {
				if dead[i] {
					continue
				}
				for c := range data {
					row[c] = data[c][i]
				}
				if q.Matches(row) {
					want++
				}
			}
			if gotMatched != want {
				t.Fatalf("density=%v trial=%d: matched %d, live brute force %d", density, trial, gotMatched, want)
			}
			for _, id := range gotIDs {
				if dead[id] {
					t.Fatalf("density=%v trial=%d: delivered tombstoned row %d", density, trial, id)
				}
			}
			// LIMIT prefixes agree across kernels and with the full run.
			limit := 1 + rng.Intn(colstore.BlockSize)
			limIDs, _, limMatched := runKernelTomb(tbl, q, words, start, end, limit, false)
			scalIDs, _, scalMatched := runKernelTomb(tbl, q, words, start, end, limit, true)
			if !equalIDs(limIDs, scalIDs) || limMatched != scalMatched {
				t.Fatalf("density=%v trial=%d limit=%d: kernels disagree under limit", density, trial, limit)
			}
			if wantLen := min(limit, len(gotIDs)); len(limIDs) != wantLen || !equalIDs(limIDs, gotIDs[:wantLen]) {
				t.Fatalf("density=%v trial=%d limit=%d: limited ids are not the unlimited prefix", density, trial, limit)
			}
		}
		// Aggregates through the run-length fast paths agree too.
		for trial := 0; trial < 20; trial++ {
			q := equivQuery(rng)
			for _, mk := range []func() Mergeable{
				func() Mergeable { return NewCount() },
				func() Mergeable { return NewSum(2) },
			} {
				got, want := mk(), mk()
				sc := NewScanner(tbl)
				sc.SetTombstones(words)
				sc.ScanRange(q, q.FilteredDims(), 0, n, got)
				sc2 := NewScanner(tbl)
				sc2.SetScalarKernel(true)
				sc2.SetTombstones(words)
				sc2.ScanRange(q, q.FilteredDims(), 0, n, want)
				if got.Result() != want.Result() {
					t.Fatalf("density=%v trial=%d agg=%T: bitmap %d != scalar %d",
						density, trial, got, got.Result(), want.Result())
				}
			}
		}
	}
}

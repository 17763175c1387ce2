package query

import (
	"math/rand"
	"slices"
	"testing"

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

// gridTable is equivTable with dim 0 laid out as a grid dimension looks
// after a build: 40 values cut into 8 columns of 5, the rows of column k in
// one run of random length holding values of that column only, runs in
// column order — so each bitmap stripe holds a slice of the domain, or two
// where a run ends inside it.
func gridTable(rng *rand.Rand, n int) (*colstore.Table, [][]int64) {
	_, data := equivTable(rng, n)
	cuts := []int{0, n}
	for range 7 {
		cuts = append(cuts, rng.Intn(n+1))
	}
	slices.Sort(cuts)
	for k := range 8 {
		for i := cuts[k]; i < cuts[k+1]; i++ {
			data[0][i] = int64(5*k-20) + rng.Int63n(5)
		}
	}
	tbl, err := colstore.NewTable([]string{"a", "b", "c", "d"}, data)
	if err != nil {
		panic(err)
	}
	tbl.EnableBitmapIndexes(64)
	return tbl, data
}

// equivQuery draws a random predicate over equivTable's dims: per dim, one
// of unfiltered, a narrow range, an equality, a full-range accept, or an
// empty range.
func equivQuery(rng *rand.Rand) Query {
	return equivQueryOver(rng, []int64{4, 13, 1 << 20, 50})
}

// equivQueryOver is equivQuery over dims whose values lie in
// [-card/2, card/2) for the given cards.
func equivQueryOver(rng *rand.Rand, cards []int64) Query {
	q := NewQuery(len(cards))
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
		ctl = GetControl(nil, limit)
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

// bruteAggregates folds column col over the rows of data that match q and
// are not dead, row by row: the definition the delivered aggregates are
// checked against. It returns COUNT, SUM, MIN and MAX in that order.
func bruteAggregates(data [][]int64, q Query, dead []bool, col int) [4]int64 {
	out := [4]int64{0, 0, PosInf, NegInf}
	row := make([]int64, len(data))
	for i := range data[0] {
		if dead != nil && dead[i] {
			continue
		}
		for c := range data {
			row[c] = data[c][i]
		}
		if !q.Matches(row) {
			continue
		}
		v := data[col][i]
		out[0]++
		out[1] += v
		out[2], out[3] = min(out[2], v), max(out[3], v)
	}
	return out
}

// TestBitmapKernelAggregates runs both kernels through each built-in
// aggregator, with and without tombstones, and compares the results with each
// other and with the row by row definition — both kernels deliver through
// AddBlock, so agreeing with each other is not enough. Column 2 is the wide
// one (its blocks take the packed masked kernels), column 1 a narrow one.
func TestBitmapKernelAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 5*colstore.BlockSize + 7
	tbl, data := equivTable(rng, n)
	for _, density := range []float64{0, 0.3} {
		var words []uint64
		var dead []bool
		if density > 0 {
			words, dead, _ = tombWords(rng, n, density)
		}
		for trial := 0; trial < 60; trial++ {
			q := equivQuery(rng)
			for _, col := range []int{2, 1} {
				want := bruteAggregates(data, q, dead, col)
				for i, mk := range []func() Aggregator{
					func() Aggregator { return NewCount() },
					func() Aggregator { return NewSum(col) },
					func() Aggregator { return NewMin(col) },
					func() Aggregator { return NewMax(col) },
				} {
					for _, scalar := range []bool{false, true} {
						agg := mk()
						sc := NewScanner(tbl)
						sc.SetScalarKernel(scalar)
						sc.SetTombstones(words)
						sc.ScanRange(q, q.FilteredDims(), 0, n, agg)
						if agg.Result() != want[i] {
							t.Fatalf("density=%v trial=%d col=%d agg=%T scalar=%v: %d, row by row %d (query %+v)",
								density, trial, col, agg, scalar, agg.Result(), want[i], q.Ranges)
						}
					}
				}
			}
		}
	}
}

// TestKeepFirst pins the LIMIT truncation of a block mask against its
// definition — the lowest take set bits, in row order — for every take over
// sparse, dense and full masks.
func TestKeepFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	masks := []colstore.BlockBitmap{
		{^uint64(0), ^uint64(0)},
		{rng.Uint64(), rng.Uint64()},
		{rng.Uint64() & rng.Uint64() & rng.Uint64(), rng.Uint64() | rng.Uint64()},
		{0, rng.Uint64()},
		{rng.Uint64(), 0},
	}
	for _, m := range masks {
		for take := 0; take <= m.Count(); take++ {
			var want colstore.BlockBitmap
			for i, left := 0, take; i < colstore.BlockSize && left > 0; i++ {
				if bit := uint64(1) << uint(i%64); m[i/64]&bit != 0 {
					want[i/64] |= bit
					left--
				}
			}
			got := m
			keepFirst(&got, take)
			if got != want {
				t.Fatalf("keepFirst(%#x, %d) = %#x, want %#x", m, take, got, want)
			}
		}
	}
}

// TestLimitPrefixEveryCut walks a LIMIT through every position of the first
// blocks of a scan — cuts in the middle of a selection word, at a word edge,
// in the middle of a block and at a block edge — with and without
// tombstones, under a predicate that keeps about half the rows and under one
// the zone maps accept whole: both kernels must deliver exactly the first
// limit rows of the unlimited scan, and COUNT and SUM under the same limit
// must be the fold of those rows.
func TestLimitPrefixEveryCut(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 4*colstore.BlockSize + 50
	tbl, data := equivTable(rng, n)
	tomb, _, _ := tombWords(rng, n, 0.2)
	queries := []Query{
		NewQuery(4).WithRange(2, 0, PosInf),
		NewQuery(4).WithRange(2, NegInf, PosInf),
		NewQuery(4).WithRange(2, 0, PosInf).WithRange(3, -10, 10),
	}
	for qi, q := range queries {
		for _, words := range [][]uint64{nil, tomb} {
			full, _, _ := runKernelTomb(tbl, q, words, 3, n, 0, false)
			for limit := 1; limit <= min(len(full), 2*colstore.BlockSize+70); limit++ {
				var wantSum int64
				for _, id := range full[:limit] {
					wantSum += data[2][id]
				}
				for _, scalar := range []bool{false, true} {
					ids, _, matched := runKernelTomb(tbl, q, words, 3, n, limit, scalar)
					if !equalIDs(ids, full[:limit]) || matched != int64(limit) {
						t.Fatalf("query %d tomb=%v limit=%d scalar=%v: delivered %d ids (matched %d), not the unlimited prefix",
							qi, words != nil, limit, scalar, len(ids), matched)
					}
					for _, agg := range []Aggregator{NewCount(), NewSum(2)} {
						sc := NewScanner(tbl)
						sc.SetScalarKernel(scalar)
						sc.SetTombstones(words)
						ctl := GetControl(nil, limit)
						sc.SetControl(ctl)
						sc.ScanRange(q, q.FilteredDims(), 3, n, agg)
						ctl.Release()
						want := int64(limit)
						if _, ok := agg.(*Sum); ok {
							want = wantSum
						}
						if agg.Result() != want {
							t.Fatalf("query %d tomb=%v limit=%d scalar=%v agg=%T: %d, want %d",
								qi, words != nil, limit, scalar, agg, agg.Result(), want)
						}
					}
				}
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
			if got, want := sel.Count(), i1-i0; got != want {
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
		ctl = GetControl(nil, limit)
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
// both kernels must deliver identical survivors, stats, and LIMIT prefixes,
// and must never deliver a tombstoned row (TestBitmapKernelAggregates holds
// the aggregates to the row by row definition under the same masks).
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
	}
}

// TestBitmapKernelEquivalenceGridColumn runs the cross-kernel property on a
// table whose bitmap-indexed dim 0 is a grid dimension, so consecutive
// stripes index different slices of its domain and a span's ranges replan
// as the scan crosses them: under tombstones and a LIMIT, both kernels must
// deliver the same rows, stats and prefixes, and match the row by row count.
func TestBitmapKernelEquivalenceGridColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	cards := []int64{40, 13, 1 << 20, 50}
	for _, n := range []int{colstore.BlockSize + 3, 4*512 + 77, 9 * 512} {
		tbl, data := gridTable(rng, n)
		for _, density := range []float64{0, 0.3} {
			words, dead, _ := tombWords(rng, n, density)
			for trial := 0; trial < 60; trial++ {
				q := equivQueryOver(rng, cards)
				start := rng.Intn(n)
				end := start + 1 + rng.Intn(n-start)
				gotIDs, gotScanned, gotMatched := runKernelTomb(tbl, q, words, start, end, 0, false)
				wantIDs, wantScanned, wantMatched := runKernelTomb(tbl, q, words, start, end, 0, true)
				if !equalIDs(gotIDs, wantIDs) || gotScanned != wantScanned || gotMatched != wantMatched {
					t.Fatalf("n=%d density=%v trial=%d [%d,%d): bitmap (%d ids, %d, %d) != scalar (%d ids, %d, %d) (query %+v)",
						n, density, trial, start, end, len(gotIDs), gotScanned, gotMatched, len(wantIDs), wantScanned, wantMatched, q.Ranges)
				}
				var want int64
				row := make([]int64, len(data))
				for i := start; i < end; i++ {
					for c := range data {
						row[c] = data[c][i]
					}
					if !dead[i] && q.Matches(row) {
						want++
					}
				}
				if gotMatched != want {
					t.Fatalf("n=%d density=%v trial=%d: matched %d, live brute force %d", n, density, trial, gotMatched, want)
				}
				limit := 1 + rng.Intn(2*colstore.BlockSize)
				limIDs, _, limMatched := runKernelTomb(tbl, q, words, start, end, limit, false)
				scalIDs, _, scalMatched := runKernelTomb(tbl, q, words, start, end, limit, true)
				if !equalIDs(limIDs, scalIDs) || limMatched != scalMatched {
					t.Fatalf("n=%d density=%v trial=%d limit=%d: kernels disagree under limit", n, density, trial, limit)
				}
				if wantLen := min(limit, len(gotIDs)); !equalIDs(limIDs, gotIDs[:wantLen]) {
					t.Fatalf("n=%d density=%v trial=%d limit=%d: limited ids are not the unlimited prefix", n, density, trial, limit)
				}
			}
		}
	}
}

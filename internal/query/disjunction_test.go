package query

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"flood/internal/colstore"
)

func inUnion(queries []Query, p []int64) bool {
	for _, q := range queries {
		if q.Matches(p) {
			return true
		}
	}
	return false
}

// Disjoint is Decompose on storage of its own, which the caller keeps.
func Disjoint(queries []Query) []Query {
	var d Decomposition
	d.decompose(queries, math.MaxInt, math.MaxInt)
	return d.Pieces
}

func cloneQuery(q Query) Query {
	return Query{Ranges: append([]Range(nil), q.Ranges...)}
}

func randomRect(rng *rand.Rand, d int, span int64) Query {
	q := NewQuery(d)
	for dim := 0; dim < d; dim++ {
		if rng.Intn(3) == 0 {
			continue // leave unfiltered
		}
		lo := rng.Int63n(span)
		hi := lo + rng.Int63n(span/4+1)
		q = q.WithRange(dim, lo, hi)
	}
	return q
}

func TestDisjointCoversUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(3)
		var rects []Query
		for i := 0; i < 1+rng.Intn(4); i++ {
			rects = append(rects, randomRect(rng, d, 40))
		}
		disjoint := Disjoint(rects)
		// Probe lattice points: membership in the union must equal
		// membership in exactly zero-or-one disjoint piece.
		p := make([]int64, d)
		var probe func(dim int)
		probe = func(dim int) {
			if dim == d {
				hits := 0
				for _, q := range disjoint {
					if q.Matches(p) {
						hits++
					}
				}
				if inUnion(rects, p) {
					if hits != 1 {
						t.Fatalf("point %v covered %d times, want 1 (rects %v)", p, hits, rects)
					}
				} else if hits != 0 {
					t.Fatalf("point %v outside union but covered %d times", p, hits)
				}
				return
			}
			for v := int64(0); v < 50; v += 3 {
				p[dim] = v
				probe(dim + 1)
			}
		}
		probe(0)
	}
}

func TestDisjointDropsEmptyInputs(t *testing.T) {
	q := NewQuery(2).WithRange(0, 10, 5) // inverted
	if got := Disjoint([]Query{q}); len(got) != 0 {
		t.Fatalf("empty rect should be dropped, got %d", len(got))
	}
	if got := Disjoint(nil); got != nil {
		t.Fatal("nil input should produce nil")
	}
}

func TestDisjointIdenticalRects(t *testing.T) {
	q := NewQuery(2).WithRange(0, 1, 10).WithRange(1, 1, 10)
	got := Disjoint([]Query{q, q, q})
	if len(got) != 1 {
		t.Fatalf("identical rects should collapse to 1, got %d", len(got))
	}
}

func TestDisjointNonOverlapping(t *testing.T) {
	a := NewQuery(1).WithRange(0, 0, 10)
	b := NewQuery(1).WithRange(0, 20, 30)
	got := Disjoint([]Query{a, b})
	if len(got) != 2 {
		t.Fatalf("non-overlapping rects should stay as 2, got %d", len(got))
	}
}

func TestSubtractExtremes(t *testing.T) {
	// Subtraction near the int64 domain edges must not overflow.
	a := NewQuery(1) // full domain
	b := NewQuery(1).WithRange(0, 0, 100)
	pieces := subtractAppend(nil, cloneQuery(a), b, cloneQuery)
	p := []int64{NegInf}
	if !inUnion(pieces, p) {
		t.Fatal("NegInf should survive subtraction of [0, 100]")
	}
	p[0] = PosInf
	if !inUnion(pieces, p) {
		t.Fatal("PosInf should survive subtraction of [0, 100]")
	}
	p[0] = 50
	if inUnion(pieces, p) {
		t.Fatal("50 should be removed")
	}
}

// TestDecomposeNoDoubleCount runs the pooled decomposition the execution
// paths use: summing an aggregate over the pieces counts every row of the
// union exactly once, call after call on recycled storage.
func TestDecomposeNoDoubleCount(t *testing.T) {
	tbl, data := buildTestTable(t, 2000, 63)
	idx := &scanIndex{t: tbl}
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 30; trial++ {
		var rects []Query
		for i := 0; i < 1+rng.Intn(3); i++ {
			rects = append(rects, randomRect(rng, 3, 100))
		}
		agg := NewCount()
		d := Decompose(rects)
		for _, piece := range d.Pieces {
			idx.Execute(piece, agg)
		}
		d.Release()
		var want int64
		p := make([]int64, 3)
		for r := 0; r < 2000; r++ {
			for c := range data {
				p[c] = data[c][r]
			}
			if inUnion(rects, p) {
				want++
			}
		}
		if agg.Result() != want {
			t.Fatalf("disjunction count = %d, want %d", agg.Result(), want)
		}
	}
}

// scanIndex is a minimal Index for disjunction tests.
type scanIndex struct{ t *colstore.Table }

func (s *scanIndex) Name() string     { return "scan" }
func (s *scanIndex) SizeBytes() int64 { return 0 }
func (s *scanIndex) Execute(q Query, agg Aggregator) Stats {
	scanned, matched := NewScanner(s.t).ScanRange(q, q.FilteredDims(), 0, s.t.NumRows(), agg)
	return Stats{Scanned: scanned, Matched: matched}
}

func (s *scanIndex) ExecuteContext(_ context.Context, q Query, agg Aggregator) (Stats, error) {
	return s.Execute(q, agg), nil
}

func TestDisjunctionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []Query
		for i := 0; i < 1+rng.Intn(4); i++ {
			rects = append(rects, randomRect(rng, 2, 30))
		}
		disjoint := Disjoint(rects)
		// Pairwise disjointness by rejection sampling.
		p := make([]int64, 2)
		for probe := 0; probe < 200; probe++ {
			p[0], p[1] = rng.Int63n(40), rng.Int63n(40)
			hits := 0
			for _, q := range disjoint {
				if q.Matches(p) {
					hits++
				}
			}
			if hits > 1 {
				return false
			}
			if inUnion(rects, p) != (hits == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// crossingSlabs returns n slabs on each of k dimensions, slab i of a
// dimension the value 2i on it: their disjoint decomposition cuts about
// (n+1)^(k-1) * n pieces.
func crossingSlabs(n, k int) []Query {
	var rects []Query
	for d := 0; d < k; d++ {
		for i := 0; i < n; i++ {
			rects = append(rects, NewQuery(k).WithRange(d, int64(2*i), int64(2*i)))
		}
	}
	return rects
}

// TestDecomposableBounds pins both of Decomposable's bounds on crossing
// slabs, whose decomposition grows as a power of their count.
func TestDecomposableBounds(t *testing.T) {
	small := crossingSlabs(20, 2) // 20 + 21*20 = 440 pieces
	d := Decompose(small)
	pieces := len(d.Pieces)
	d.Release()
	if pieces != 440 {
		t.Fatalf("20x20 crossing slabs cut %d pieces, want 440", pieces)
	}
	// The piece bound counts every piece cut, the ones a later slab cuts
	// again included: so at least the final count, here about twice it.
	if !Decomposable(small, 4*pieces, math.MaxInt) {
		t.Error("refused within a piece bound of four times its piece count")
	}
	if Decomposable(small, pieces-1, math.MaxInt) {
		t.Error("accepted with fewer pieces allowed than it has")
	}
	if Decomposable(small, math.MaxInt, 1000) {
		t.Error("accepted past a bound of 1000 compared pairs")
	}

	// 341 slabs on each of three dimensions decompose into ~40M pieces;
	// refusing them stops at the bounds, in bounded time and memory.
	huge := crossingSlabs(341, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := Decomposable(huge, 1<<14, 1<<21)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("341x341x341 crossing slabs decomposed within the bounds")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("refusing them allocated %d bytes, want at most 8 MiB", got)
	}
}

package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"flood/internal/colstore"
	"flood/internal/dataset"
	"flood/internal/query"
	"flood/internal/workload"
)

// estimateReference is estimate as first written: a straight walk over every
// sample row, every bound recomputed per row. It is the oracle the windowed
// estimator and the incremental gradient must match bit for bit.
func (e *Estimator) estimateReference(fq FlatQuery, cand Candidate) Features {
	f := Features{
		TotalCells:   cand.NumCells(),
		DimsFiltered: float64(fq.Filtered),
	}
	f.AvgCellSize = float64(e.n) / f.TotalCells
	if cand.SortDim >= 0 && fq.Present[cand.SortDim] {
		f.SortFiltered = 1
	}
	nc := 1.0
	for gi, dim := range cand.GridDims {
		c := math.Max(1, cand.Cols[gi])
		if !fq.Present[dim] {
			nc *= c
			continue
		}
		w := (fq.Hi[dim]-fq.Lo[dim])*c + 1
		if w > c {
			w = c
		}
		nc *= w
	}
	f.Nc = nc

	hasResidual := false
	for dim := 0; dim < e.d; dim++ {
		if !fq.Present[dim] || dim == cand.SortDim {
			continue
		}
		inGrid := false
		for _, g := range cand.GridDims {
			if g == dim {
				inGrid = true
				break
			}
		}
		if !inGrid {
			hasResidual = true
			break
		}
	}

	var ns, exact float64
	for i := 0; i < e.sample; i++ {
		inScan := true
		inInterior := !hasResidual
		for gi, dim := range cand.GridDims {
			if !fq.Present[dim] {
				continue
			}
			c := math.Max(1, cand.Cols[gi])
			over := 1 / (2 * c)
			u := e.flat[dim][i]
			if u < fq.Lo[dim]-over || u > fq.Hi[dim]+over {
				inScan = false
				break
			}
			if u < fq.Lo[dim]+over || u > fq.Hi[dim]-over {
				inInterior = false
			}
		}
		if !inScan {
			continue
		}
		if sd := cand.SortDim; sd >= 0 && fq.Present[sd] {
			u := e.flat[sd][i]
			if u < fq.Lo[sd] || u > fq.Hi[sd] {
				continue
			}
		}
		ns++
		if inInterior {
			exact++
		}
	}
	f.Ns = ns * e.scale
	if f.Nc > 0 {
		f.AvgVisitedPerCell = f.Ns / f.Nc
	}
	if f.Ns > 0 {
		f.ExactFraction = exact * e.scale / f.Ns
	}
	return f
}

// predictWorkloadReference is a Search's Cost over the oracle.
func (e *Estimator) predictWorkloadReference(m *Model, fqs []FlatQuery, cand Candidate) float64 {
	var total float64
	for i := range fqs {
		total += m.PredictTime(e.estimateReference(fqs[i], cand))
	}
	return total / float64(len(fqs))
}

// gradientReference is the search's numeric gradient as first written: two
// full workload evaluations per dimension, each on a fresh copy of the
// columns.
func (e *Estimator) gradientReference(m *Model, fqs []FlatQuery, cand Candidate) []float64 {
	const h = 0.25
	grad := make([]float64, len(cand.Cols))
	for i := range cand.Cols {
		up := cand
		up.Cols = append([]float64(nil), cand.Cols...)
		up.Cols[i] = math.Exp(math.Log(up.Cols[i]) + h)
		down := cand
		down.Cols = append([]float64(nil), cand.Cols...)
		down.Cols[i] = math.Max(1, math.Exp(math.Log(down.Cols[i])-h))
		cu := e.predictWorkloadReference(m, fqs, up)
		cd := e.predictWorkloadReference(m, fqs, down)
		grad[i] = (cu - cd) / (2 * h)
	}
	return grad
}

// syntheticModel trains the three weight forests on made-up weight surfaces
// with a fixed seed: a model with structure in every feature whose
// predictions repeat run to run, unlike a calibrated one.
func syntheticModel(tb testing.TB) *Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(71))
	samples := make([]Sample, 600)
	for i := range samples {
		cells := math.Exp(rng.Float64() * math.Log(50000))
		nc := math.Max(1, cells*math.Pow(rng.Float64(), 3))
		ns := nc * math.Exp(rng.Float64()*6)
		f := Features{
			Nc: nc, Ns: ns, TotalCells: cells, AvgCellSize: 100000 / cells,
			DimsFiltered: float64(1 + rng.Intn(3)), AvgVisitedPerCell: ns / nc,
			ExactFraction: rng.Float64(), SortFiltered: float64(rng.Intn(2)),
		}
		samples[i] = Sample{
			X:  f.Vector(),
			WP: ptr(40 + 300/(1+nc/50)),
			WR: ptr(80 + 20*math.Log1p(f.AvgCellSize)),
			WS: ptr(1 + 6*(1-f.ExactFraction) + 30/(1+f.AvgVisitedPerCell)),
		}
	}
	m, err := Train(samples, 72)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// randomCase draws one table, estimator, workload and candidate. The shapes
// are chosen to reach every branch of the estimator: tiny and duplicate-heavy
// tables (ties in the sorted order, Lo == Hi), sample size equal to the table
// size, queries that filter nothing, one dimension or all of them, ranges that
// miss the data entirely, candidates with cols at and below 1, grid
// dimensions the query does not filter, filtered dimensions outside the grid
// (residual), and the sort dimension filtered, unfiltered or absent.
func randomCase(rng *rand.Rand) (*Estimator, []FlatQuery, Candidate) {
	d := 1 + rng.Intn(6)
	n := []int{1, 2, 7, 60, 500, 3000}[rng.Intn(6)]
	cols := make([][]int64, d)
	names := make([]string, d)
	for j := range cols {
		names[j] = fmt.Sprintf("c%d", j)
		cols[j] = make([]int64, n)
		domain := []int64{1, 3, 40, 1 << 20}[rng.Intn(4)]
		for i := range cols[j] {
			if rng.Intn(2) == 0 {
				cols[j][i] = rng.Int63n(domain)
			} else {
				cols[j][i] = int64(rng.ExpFloat64() * float64(domain) / 8)
			}
		}
	}
	tbl := colstore.MustNewTable(names, cols)
	sample := n
	if rng.Intn(3) > 0 {
		sample = 1 + rng.Intn(n)
	}
	e := NewEstimator(tbl, sample, rng.Int63())

	fqs := make([]FlatQuery, 1+rng.Intn(6))
	for i := range fqs {
		q := query.NewQuery(d)
		for dim := 0; dim < d; dim++ {
			if rng.Intn(2) == 0 {
				continue
			}
			lo, hi := cols[dim][rng.Intn(n)], cols[dim][rng.Intn(n)]
			switch rng.Intn(5) {
			case 0:
				hi = lo // equality
			case 1:
				lo, hi = math.MaxInt64-1, math.MaxInt64 // misses the data
			case 2:
				lo, hi = math.MinInt64, math.MaxInt64 // covers it
			}
			if lo > hi && rng.Intn(4) > 0 {
				lo, hi = hi, lo // keep a few inverted ranges
			}
			q = q.WithRange(dim, lo, hi)
		}
		fqs[i] = e.Flatten(q)
	}

	perm := rng.Perm(d)
	g := rng.Intn(d + 1)
	cand := Candidate{GridDims: perm[:g], Cols: make([]float64, g), SortDim: -1}
	if g < d && rng.Intn(4) > 0 {
		cand.SortDim = perm[g]
	}
	for i := range cand.Cols {
		switch rng.Intn(4) {
		case 0:
			cand.Cols[i] = 1
		case 1:
			cand.Cols[i] = 0.25 + rng.Float64() // around and below 1
		default:
			cand.Cols[i] = math.Exp(rng.Float64() * 8)
		}
	}
	return e, fqs, cand
}

func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	var filtered, residual, sortFiltered, empty int
	for trial := 0; trial < 3000; trial++ {
		e, fqs, cand := randomCase(rng)
		for _, fq := range fqs {
			got, want := e.estimate(fq, cand), e.estimateReference(fq, cand)
			if got != want {
				t.Fatalf("trial %d: estimate = %+v, reference %+v\nquery %+v\ncandidate %+v", trial, got, want, fq, cand)
			}
			if fq.Filtered > 0 {
				filtered++
			}
			if want.ExactFraction == 0 && want.Ns > 0 {
				residual++
			}
			if want.SortFiltered > 0 {
				sortFiltered++
			}
			if want.Ns == 0 {
				empty++
			}
		}
	}
	// The generator must keep reaching the cases the estimator branches on.
	for name, c := range map[string]int{"filtered": filtered, "inexact": residual, "sort-filtered": sortFiltered, "empty": empty} {
		if c < 100 {
			t.Errorf("only %d %s cases generated", c, name)
		}
	}
}

func TestSearchMatchesReference(t *testing.T) {
	m := syntheticModel(t)
	rng := rand.New(rand.NewSource(102))
	var s *Search
	for trial := 0; trial < 1500; trial++ {
		e, fqs, cand := randomCase(rng)
		// A Search is reused across candidates of one workload, so its
		// scratch and row cache carry over; evaluate several.
		s = e.NewSearch(m, fqs)
		for k := 0; k < 3; k++ {
			want := e.predictWorkloadReference(m, fqs, cand)
			if got := s.Cost(cand); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Cost = %v, reference %v\ncandidate %+v", trial, got, want, cand)
			}
			if got := e.NewSearch(m, fqs).Cost(cand); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: a fresh Search's Cost = %v, reference %v", trial, got, want)
			}
			before := append([]float64(nil), cand.Cols...)
			grad := make([]float64, len(cand.Cols))
			s.Gradient(cand, 0.25, grad)
			for i, w := range e.gradientReference(m, fqs, cand) {
				if math.Float64bits(grad[i]) != math.Float64bits(w) {
					t.Fatalf("trial %d: grad[%d] = %v, reference %v\nqueries %+v\ncandidate %+v", trial, i, grad[i], w, fqs, cand)
				}
			}
			for i := range before {
				if cand.Cols[i] != before[i] {
					t.Fatalf("trial %d: Gradient changed the candidate's columns", trial)
				}
				// The next candidate: a step as the descent takes it.
				cand.Cols[i] = math.Max(1, cand.Cols[i]*math.Exp(rng.NormFloat64()/2))
			}
		}
	}
}

// TestPermPrefixMatchesPerm holds the estimator's O(k) draw to the prefix of
// rand.Perm it replays, and requires it to leave the generator where Perm
// does: the optimizer draws its query sample from the same generator next.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 5, 2000, 2001, 100000} {
		for _, k := range []int{0, 1, n / 2, n} {
			for seed := int64(0); seed < 3; seed++ {
				want, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				gotRng := rand.New(rand.NewSource(seed))
				got := permPrefix(gotRng, n, k)
				if w := want.Perm(n)[:k]; !slices.Equal(got, w) {
					t.Fatalf("n=%d k=%d seed=%d: permPrefix differs from Perm's prefix", n, k, seed)
				}
				wantRng.Perm(n)
				if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
					t.Fatalf("n=%d k=%d seed=%d: next draw %d after permPrefix, %d after Perm", n, k, seed, g, w)
				}
			}
		}
	}
}

// TestNewEstimatorAllocatesSample bounds what drawing and flattening a
// 2,000-row sample of a 2M-row table allocates: a permutation of the whole
// table alone was 16 MB.
func TestNewEstimatorAllocatesSample(t *testing.T) {
	const n = 2_000_000
	cols := [][]int64{make([]int64, n), make([]int64, n)}
	for i := range cols[0] {
		cols[0][i], cols[1][i] = int64(i), int64(i*7919%n)
	}
	tbl := colstore.MustNewTable([]string{"a", "b"}, cols)
	cols = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := NewEstimator(tbl, 2000, 1)
	runtime.ReadMemStats(&after)
	if e.sample != 2000 {
		t.Fatalf("sample size %d", e.sample)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("NewEstimator allocated %d bytes over %d rows, want at most 1 MiB", got, n)
	}
}

// BenchmarkEstimate times one (query, candidate) evaluation on the search's
// default 2,000-row sample, against the oracle's full walk.
func BenchmarkEstimate(b *testing.B) {
	ds := dataset.TPCH(100000, 91)
	queries := workload.Standard(ds, 50, 92)
	e := NewEstimator(ds.Table, 2000, 93)
	fqs := make([]FlatQuery, len(queries))
	for i, q := range queries {
		fqs[i] = e.Flatten(q)
	}
	cand := Candidate{GridDims: []int{5, 2, 0, 1}, Cols: []float64{24, 6, 9, 3}, SortDim: 6}
	for _, impl := range []struct {
		name     string
		estimate func(FlatQuery, Candidate) Features
	}{{"windowed", e.estimate}, {"reference", e.estimateReference}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				estimateSink = impl.estimate(fqs[i%len(fqs)], cand)
			}
		})
	}
}

var estimateSink Features

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flood/internal/dataset"
	"flood/internal/rmi"
)

// stepColumnCounts are the column counts the exactness sweep derives tables
// for: one column (an empty table), a few small ones, and one past the
// number of distinct values of some generator columns.
var stepColumnCounts = []int{1, 2, 3, 5, 9, 14, 22, 64}

// defaultCDFLeaves is the leaf count builds gave the flattening CDF while
// the index was cut by one: what the CDF in a legacy (tag 1) snapshot has.
func defaultCDFLeaves(n int) int { return min(max(n/64, 16), 1024) }

// cdfSteps is the step points of ⌊CDF(v)·cols⌋, the flattening a legacy
// snapshot's CDF stands for.
func cdfSteps(cdf *rmi.CDF, cols int) steps {
	return stepPoints(func(v int64) int { return cdf.Bucket(v, cols) }, cols)
}

// trainedBucketers returns the two bucketing functions Build fits to a
// column for cols columns — the flattening CDF's and the equal-width one —
// trained exactly as Build trains them.
func trainedBucketers(col []int64, cols int) map[string]func(int64) int {
	cdf := rmi.TrainCDF(col, defaultCDFLeaves(len(col)))
	var minV, maxV int64
	if len(col) > 0 {
		minV, maxV = slices.Min(col), slices.Max(col)
	}
	rangeSz := float64(maxV) - float64(minV) + 1
	return map[string]func(int64) int{
		"flattened":   func(v int64) int { return cdf.Bucket(v, cols) },
		"equal-width": func(v int64) int { return equalWidthBucket(v, minV, rangeSz, cols) },
	}
}

// checkSteps compares st with the function it was derived from at v, at
// v±1, at both int64 extremes, at every step point and the value before it,
// and checks the table's shape: non-decreasing, at most cols−1 points.
// It returns the number of values probed.
func checkSteps(t *testing.T, what string, bucket func(int64) int, st steps, cols int, vs []int64) int {
	t.Helper()
	if len(st) > cols-1 {
		t.Fatalf("%s: %d step points for %d columns", what, len(st), cols)
	}
	if !slices.IsSorted(st) {
		t.Fatalf("%s: step points %v are not ascending", what, st)
	}
	probes := 0
	probe := func(v int64) {
		probes++
		if got, want := st.bucket(v), bucket(v); got != want {
			t.Fatalf("%s: bucket(%d) = %d from the step points, %d from the model", what, v, got, want)
		}
	}
	probe(math.MinInt64)
	probe(math.MaxInt64)
	for _, p := range st {
		probe(p)
		if p != math.MinInt64 {
			probe(p - 1)
		}
	}
	for _, v := range vs {
		probe(v)
		if v != math.MinInt64 {
			probe(v - 1)
		}
		if v != math.MaxInt64 {
			probe(v + 1)
		}
	}
	return probes
}

// TestStepPointsMatchTrainedBucketer derives step points from the bucketing
// functions Build trains — flattening CDF and equal-width — for every column
// of every generator at 1k and 100k rows and every column count in
// stepColumnCounts, and requires the table to bucket exactly like the model
// at every table value, at the values beside them, at 10,000 random values
// of the column's domain and at both int64 extremes.
func TestStepPointsMatchTrainedBucketer(t *testing.T) {
	sizes := []int{1000, 100_000}
	if testing.Short() || raceEnabled {
		sizes = sizes[:1]
	}
	rng := rand.New(rand.NewSource(41))
	probes := 0
	for _, name := range dataset.Names() {
		for _, n := range sizes {
			ds := dataset.ByName(name, n, 7)
			for c, col := range ds.Cols {
				vs := slices.Compact(slices.Sorted(slices.Values(col)))
				lo, hi := vs[0], vs[len(vs)-1]
				for range 10_000 {
					vs = append(vs, lo+int64(rng.Uint64()%(uint64(hi-lo)+1)))
				}
				for _, cols := range stepColumnCounts {
					for mode, bucket := range trainedBucketers(col, cols) {
						what := fmt.Sprintf("%s/%d rows/column %d/%d columns/%s", name, n, c, cols, mode)
						probes += checkSteps(t, what, bucket, stepPoints(bucket, cols), cols, vs)
					}
				}
			}
		}
	}
	t.Logf("%d probes", probes)
}

// TestStepPointsEdgeCases holds the derivation to the columns whose tables
// are not simply c−1 points inside the domain: a duplicate-heavy maximum
// leaves the top columns unreachable (a short table), a duplicate-heavy
// minimum puts values below the domain past column 0 (leading MinInt64
// points), a single-value column does both, and one column has no points.
func TestStepPointsEdgeCases(t *testing.T) {
	// A tenth of the rows on one value and the rest a gap away, so that the
	// duplicates are the whole of the CDF's first (or last) leaf: a flat one.
	const n, cols, w = 4000, 64, 1_000_000
	rng := rand.New(rand.NewSource(42))
	heavyMax, heavyMin, single := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		single[i] = -5
		if i >= n/10 {
			x := w + rng.Int63n(w)
			heavyMin[i], heavyMax[i] = x, -x
		}
	}
	for _, tc := range []struct {
		name             string
		col              []int64
		short, leadBelow bool // a table shorter than cols−1; MinInt64 points
	}{
		{"duplicate-heavy maximum", heavyMax, true, false},
		{"duplicate-heavy minimum", heavyMin, false, true},
		{"single value", single, true, true},
	} {
		cdf := rmi.TrainCDF(tc.col, defaultCDFLeaves(n))
		bucket := func(v int64) int { return cdf.Bucket(v, cols) }
		st := cdfSteps(cdf, cols)
		checkSteps(t, tc.name, bucket, st, cols, tc.col)
		if short := len(st) < cols-1; short != tc.short {
			t.Errorf("%s: %d step points for %d columns, want a short table: %v", tc.name, len(st), cols, tc.short)
		}
		if lead := len(st) > 0 && st[0] == math.MinInt64; lead != tc.leadBelow {
			t.Errorf("%s: step points %v, want leading MinInt64 points: %v", tc.name, st, tc.leadBelow)
		}
		for mode, bucket := range trainedBucketers(tc.col, 1) {
			if st := stepPoints(bucket, 1); len(st) != 0 || st.bucket(math.MaxInt64) != 0 {
				t.Errorf("%s, %s: one column has step points %v", tc.name, mode, st)
			}
		}
	}
}

// TestFloodSizeIsCellTableAndStepPoints pins what an index keeps besides its
// data: a 100k-row index over five grid dimensions, every column reachable,
// is the cell table, 8 bytes a step point and a fixed header per dimension.
// A per-dimension model kept beside the points would show here.
func TestFloodSizeIsCellTableAndStepPoints(t *testing.T) {
	tbl, _ := makeData(t, 100_000, 6, 43)
	layout := Layout{GridDims: []int{0, 1, 2, 3, 4}, GridCols: []int{6, 5, 4, 3, 7}, SortDim: 5, Flatten: true}
	f, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(layout.NumCells()+1) * 4
	for gi, cols := range layout.GridCols {
		if len(f.steps[gi]) != cols-1 {
			t.Fatalf("grid dimension %d keeps %d step points for %d columns", gi, len(f.steps[gi]), cols)
		}
		want += int64(cols-1)*8 + stepsHeaderBytes
	}
	if got := f.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d: the cell table, 8 B a step point and %d B a dimension", got, want, stepsHeaderBytes)
	}
}

// FuzzStepPoints trains a flattening CDF on an arbitrary small column and
// checks the step points derived from it, for an arbitrary column count,
// against the model at a fuzzed value and at every value of the column.
func FuzzStepPoints(f *testing.F) {
	col := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(col(1, 2, 3, 4, 5, 6, 7, 8), uint8(4), uint8(2), int64(5))
	f.Add(col(7, 7, 7, 7, 7, 9), uint8(5), uint8(3), int64(8))
	f.Add(col(math.MinInt64, -1, 0, math.MaxInt64), uint8(9), uint8(4), int64(0))
	f.Add(col(0, 0, 0, 0, 1<<40, 1<<41), uint8(22), uint8(1), int64(-3))
	f.Add(col(5), uint8(1), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, colsB, leaves uint8, v int64) {
		vals := make([]int64, 0, len(data)/8)
		for i := 0; i+8 <= len(data) && len(vals) < 256; i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		if len(vals) == 0 {
			return
		}
		cols := 1 + int(colsB)%64
		cdf := rmi.TrainCDF(vals, int(leaves))
		bucket := func(v int64) int { return cdf.Bucket(v, cols) }
		checkSteps(t, fmt.Sprintf("%d columns", cols), bucket, cdfSteps(cdf, cols), cols, append(vals, v))
	})
}

// BenchmarkBucket times one projection lookup on a flattened TPC-H column at
// 22 columns: through the step points the index keeps (steps) and through
// the 1,024-leaf CDF they were derived from (cdf).
func BenchmarkBucket(b *testing.B) {
	col := dataset.TPCH(100_000, 7).Cols[0]
	cdf := rmi.TrainCDF(col, defaultCDFLeaves(len(col)))
	st := cdfSteps(cdf, 22)
	probes := make([]int64, 1024)
	rng := rand.New(rand.NewSource(44))
	for i := range probes {
		probes[i] = col[rng.Intn(len(col))]
	}
	sink := 0
	b.Run("steps", func(b *testing.B) {
		for i := range b.N {
			sink += st.bucket(probes[i%len(probes)])
		}
	})
	b.Run("cdf", func(b *testing.B) {
		for i := range b.N {
			sink += cdf.Bucket(probes[i%len(probes)], 22)
		}
	})
	_ = sink
}

// cutOf counts col as Build does and cuts it into cols columns, returning
// the counts, the step points and every row's column as Build assigns it.
func cutOf(col []int64, cols int) (*valueCounts, steps, []int32) {
	var w buildScratch
	var lo, hi int64
	if len(col) > 0 {
		lo, hi = slices.Min(col), slices.Max(col)
	}
	w.counts.count(col, lo, hi, &w)
	vc := w.counts.clone()
	st := vc.cut(cols)
	rowCol := make([]int32, len(col))
	addCutTerms(rowCol, col, lo, hi, st, 1, new([]int32))
	return vc, st, rowCol
}

// fullest is the most rows any column holds with the rows bucketed by st.
func fullest(col []int64, st steps) int {
	n := make([]int, len(st)+1)
	for _, v := range col {
		n[st.bucket(v)]++
	}
	return slices.Max(n)
}

// quantileCut is the cut's definition written the plain way, from a sorted
// copy of col: for each k the value boundary whose count of rows below it is
// nearest k·n/cols, the lower on a tie, found by a linear scan; a boundary
// past the last value ends the table.
func quantileCut(col []int64, cols int) steps {
	sorted := slices.Sorted(slices.Values(col))
	var starts []int // the sorted position where each distinct value starts
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			starts = append(starts, i)
		}
	}
	st := steps{}
	if len(starts) <= 1 {
		return st
	}
	starts = append(starts, len(col))
	for k := 1; k < cols; k++ {
		target := k * len(col) / cols
		best := 0
		for j, at := range starts {
			if abs(at-target) < abs(starts[best]-target) {
				best = j
			}
		}
		if best == len(starts)-1 {
			break
		}
		st = append(st, sorted[starts[best]])
	}
	return st
}

func abs(x int) int { return max(x, -x) }

// checkCut holds the cut of col into cols columns to its definition
// (quantileCut) and its consequences: at most cols−1 step points,
// non-decreasing; no column fuller than n/cols rows plus the largest value's;
// and every row in the column steps.bucket puts its value in.
func checkCut(t *testing.T, what string, col []int64, cols int) (vc *valueCounts, st steps) {
	t.Helper()
	vc, st, rowCol := cutOf(col, cols)
	if want := quantileCut(col, cols); !slices.Equal(st, want) {
		t.Fatalf("%s: step points %v, the quantile cut is %v", what, st, want)
	}
	if len(st) > cols-1 || !slices.IsSorted(st) {
		t.Fatalf("%s: step points %v for %d columns", what, st, cols)
	}
	for i, v := range col {
		if got := st.bucket(v); got != int(rowCol[i]) {
			t.Fatalf("%s: row %d (value %d) is in column %d, steps.bucket says %d", what, i, v, rowCol[i], got)
		}
	}
	heaviest := 0
	for j := range vc.vals {
		heaviest = max(heaviest, int(vc.prefix[j+1]-vc.prefix[j]))
	}
	if got, bound := fullest(col, st), (len(col)+cols-1)/cols+heaviest; got > bound {
		t.Fatalf("%s: the fullest column holds %d rows, more than n/c plus the heaviest value, %d", what, got, bound)
	}
	return vc, st
}

// TestGridCutIsQuantileCut checks the cut Build makes of every column of
// every generator at 1k and 100k rows, through both the histogram (narrow)
// and the sorted (wide) counts, at every column count in stepColumnCounts,
// against its definition and its bounds (checkCut), and requires no column
// fuller than the fullest under the flattening CDF's step points, the cut
// builds made before. Small random columns of heavy and light values are
// checked the same way.
func TestGridCutIsQuantileCut(t *testing.T) {
	sizes := []int{1000, 100_000}
	if testing.Short() || raceEnabled {
		sizes = sizes[:1]
	}
	paths := map[bool]int{}
	for _, name := range dataset.Names() {
		for _, n := range sizes {
			ds := dataset.ByName(name, n, 7)
			for c, col := range ds.Cols {
				cdf := rmi.TrainCDF(col, defaultCDFLeaves(len(col)))
				for _, cols := range stepColumnCounts {
					what := fmt.Sprintf("%s/%d rows/column %d/%d columns", name, n, c, cols)
					vc, st := checkCut(t, what, col, cols)
					paths[narrow(vc.vals[0], vc.vals[len(vc.vals)-1], len(col))]++
					if got, rmiFullest := fullest(col, st), fullest(col, cdfSteps(cdf, cols)); got > rmiFullest {
						t.Fatalf("%s: the fullest column holds %d rows, %d under the CDF's step points", what, got, rmiFullest)
					}
				}
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("cuts by path (narrow: true): %v, want both", paths)
	}
	rng := rand.New(rand.NewSource(45))
	for trial := range 2000 {
		col := make([]int64, 0, 64)
		for v := range int64(1 + rng.Intn(12)) {
			k := 1 + rng.Intn(6)
			if rng.Intn(4) == 0 {
				k *= 10
			}
			for range k {
				col = append(col, v*int64(1+rng.Intn(3)))
			}
		}
		rng.Shuffle(len(col), func(i, j int) { col[i], col[j] = col[j], col[i] })
		checkCut(t, fmt.Sprintf("trial %d", trial), col, 1+rng.Intn(8))
	}
}

// TestGridCutEdgeCases cuts the columns whose counts are lopsided: a single
// value (no step points whatever the column count); a duplicate-heavy
// minimum, whose rows span several quantiles, so the columns below it are
// empty (leading points equal to the minimum, as the CDF's leading MinInt64
// points were) and it fills one column alone; a duplicate-heavy maximum,
// which ends the table early; and more columns than distinct values, each
// value then in a column of its own.
func TestGridCutEdgeCases(t *testing.T) {
	const n, w = 4000, 1_000_000
	rng := rand.New(rand.NewSource(46))
	heavyMax, heavyMin, single, few := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		single[i] = -5
		few[i] = int64(i%7) * 1000
		if i >= n/10 {
			x := w + rng.Int63n(w)
			heavyMin[i], heavyMax[i] = x, -x
		}
	}
	// alone reports that value v of col has a column to itself.
	alone := func(st steps, col []int64, v int64) bool {
		for _, u := range col {
			if u != v && st.bucket(u) == st.bucket(v) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name string
		col  []int64
		cols int
		want func(st steps) bool
	}{
		{"single value", single, 64, func(st steps) bool { return len(st) == 0 }},
		{"duplicate-heavy minimum", heavyMin, 64, func(st steps) bool {
			return len(st) == 63 && st[0] == 0 && st[1] == 0 && alone(st, heavyMin, 0)
		}},
		{"duplicate-heavy maximum", heavyMax, 64, func(st steps) bool {
			return len(st) < 63 && st[len(st)-1] == 0 && st[len(st)-2] == 0 && alone(st, heavyMax, 0)
		}},
		{"more columns than values", few, 22, func(st steps) bool {
			for v := int64(0); v < 7000; v += 1000 {
				if !alone(st, few, v) {
					return false
				}
			}
			return len(st) <= 21
		}},
	} {
		if _, st := checkCut(t, tc.name, tc.col, tc.cols); !tc.want(st) {
			t.Errorf("%s: step points %v", tc.name, st)
		}
	}
}

package rmi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func skewedValues(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		// Log-normal-ish skew.
		vals[i] = int64(math.Exp(rng.NormFloat64()*2+8)) + rng.Int63n(10)
	}
	return vals
}

func TestCDFMonotone(t *testing.T) {
	vals := skewedValues(5000, 1)
	m := TrainCDF(vals, 64)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	prev := -1.0
	for _, v := range sorted {
		p := m.At(v)
		if p < prev {
			t.Fatalf("CDF not monotone: At(%d) = %f < %f", v, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("CDF out of range: At(%d) = %f", v, p)
		}
		prev = p
	}
	// Also monotone across arbitrary probes, including unseen values.
	prev = -1
	for v := sorted[0] - 10; v < sorted[len(sorted)-1]+10; v += (sorted[len(sorted)-1] - sorted[0]) / 500 {
		p := m.At(v)
		if p < prev {
			t.Fatalf("CDF not monotone at probe %d: %f < %f", v, p, prev)
		}
		prev = p
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []int64, probes []int64) bool {
		if len(raw) == 0 {
			return true
		}
		m := TrainCDF(raw, 8)
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		prev := -1.0
		for _, v := range probes {
			p := m.At(v)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAccuracy(t *testing.T) {
	vals := skewedValues(20000, 2)
	m := TrainCDF(vals, 256)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	var maxErr float64
	for i, v := range sorted {
		trueCDF := float64(i+1) / n
		if e := math.Abs(m.At(v) - trueCDF); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.15 {
		t.Fatalf("CDF max error %.3f too large for 256 leaves on 20k points", maxErr)
	}
}

func TestCDFBucketBalance(t *testing.T) {
	// Flattening exists to even out bucket sizes on skewed data (§5.1).
	vals := skewedValues(30000, 3)
	m := TrainCDF(vals, 256)
	const nb = 16
	counts := make([]int, nb)
	for _, v := range vals {
		counts[m.Bucket(v, nb)]++
	}
	want := len(vals) / nb
	for b, c := range counts {
		if c > want*3 {
			t.Fatalf("bucket %d holds %d points, want <= %d (3x ideal)", b, c, want*3)
		}
	}
}

func TestCDFDegenerateInputs(t *testing.T) {
	m := TrainCDF(nil, 4)
	if p := m.At(42); p < 0 || p > 1 {
		t.Fatalf("empty-model At out of range: %f", p)
	}
	m = TrainCDF([]int64{7}, 4)
	if m.Bucket(7, 10) < 0 || m.Bucket(7, 10) > 9 {
		t.Fatal("single-value bucket out of range")
	}
	m = TrainCDF([]int64{5, 5, 5, 5}, 4)
	if b := m.Bucket(5, 8); b < 0 || b > 7 {
		t.Fatalf("constant-column bucket out of range: %d", b)
	}
	if m.At(4) > m.At(5) || m.At(5) > m.At(6) {
		t.Fatal("constant column not monotone around the value")
	}
}

func TestPositionLookupExact(t *testing.T) {
	for _, numLeaves := range []int{1, 8, 100} {
		vals := skewedValues(8000, 4)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		idx := TrainPosition(vals, numLeaves)
		probes := append([]int64{vals[0] - 1, vals[len(vals)-1] + 1}, vals[:200]...)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 500; i++ {
			probes = append(probes, vals[rng.Intn(len(vals))]+rng.Int63n(7)-3)
		}
		for _, v := range probes {
			want := sort.Search(len(vals), func(i int) bool { return vals[i] >= v })
			if got := idx.Lookup(v); got != want {
				t.Fatalf("leaves=%d: Lookup(%d) = %d, want %d", numLeaves, v, got, want)
			}
		}
	}
}

func TestPositionLookupProperty(t *testing.T) {
	f := func(raw []int64, probes []int64) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		idx := TrainPosition(raw, 4)
		for _, v := range probes {
			want := sort.Search(len(raw), func(i int) bool { return raw[i] >= v })
			if idx.Lookup(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPositionEmptyAndDuplicates(t *testing.T) {
	idx := TrainPosition(nil, 4)
	if idx.Lookup(5) != 0 {
		t.Fatal("empty index Lookup != 0")
	}
	dup := []int64{3, 3, 3, 3, 3, 3, 7, 7, 7}
	idx = TrainPosition(dup, 3)
	if idx.Lookup(3) != 0 || idx.Lookup(4) != 6 || idx.Lookup(7) != 6 || idx.Lookup(8) != 9 {
		t.Fatalf("duplicate lookups wrong: %d %d %d %d",
			idx.Lookup(3), idx.Lookup(4), idx.Lookup(7), idx.Lookup(8))
	}
}

func TestSizeBytesPositive(t *testing.T) {
	vals := skewedValues(1000, 6)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if TrainPosition(vals, 16).SizeBytes() <= 0 {
		t.Fatal("PositionIndex SizeBytes must be positive")
	}
}

func BenchmarkCDFAt(b *testing.B) {
	vals := skewedValues(100000, 7)
	m := TrainCDF(vals, 256)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.At(vals[i%len(vals)])
	}
	_ = sink
}

func BenchmarkPositionLookup(b *testing.B) {
	vals := skewedValues(100000, 8)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := TrainPosition(vals, 316)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += idx.Lookup(vals[i%len(vals)])
	}
	_ = sink
}

// TestCDFBucketMonotoneAtExtremes is the regression test for the leafFor
// overflow: on a tiny-domain column (dictionary codes), an unbounded query
// endpoint's leaf position exceeds int64 in the float domain, and the
// overflowing conversion used to saturate negative — routing +Inf-like keys
// to leaf 0 and collapsing Bucket far below in-domain keys.
func TestCDFBucketMonotoneAtExtremes(t *testing.T) {
	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = int64(i % 5) // dictionary-like domain {0..4}
	}
	m := TrainCDF(vals, 64)
	const cols = 5
	last := m.Bucket(math.MinInt64, cols)
	probes := []int64{math.MinInt64, -1, 0, 1, 2, 3, 4, 5, 1 << 40, math.MaxInt64}
	for _, v := range probes {
		b := m.Bucket(v, cols)
		if b < last {
			t.Fatalf("Bucket not monotone: Bucket(%d)=%d after %d", v, b, last)
		}
		last = b
	}
	if got := m.Bucket(math.MaxInt64, cols); got != cols-1 {
		t.Fatalf("Bucket(MaxInt64) = %d, want %d", got, cols-1)
	}
}

// trainCDFReference is TrainCDF as it stood at c4766b7, kept verbatim as the
// oracle: a sorted copy by comparison sort, the CDF points and the leaf
// assignment materialised, the fits taken over slices of them.
func trainCDFReference(values []int64, numLeaves int) *CDF {
	if len(values) == 0 {
		return &CDF{leaves: []cdfLeaf{{model: linear{}, lo: 0, hi: 1}}}
	}
	sorted := append([]int64(nil), values...)
	slices.Sort(sorted)
	if numLeaves < 1 {
		numLeaves = 1
	}
	if numLeaves > len(sorted) {
		numLeaves = len(sorted)
	}
	n := len(sorted)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, v := range sorted {
		xs[i] = float64(v)
		ys[i] = float64(i+1) / float64(n)
	}
	m := &CDF{
		root:   fitMonotone(xs, ys),
		leaves: make([]cdfLeaf, numLeaves),
		minV:   sorted[0],
		maxV:   sorted[n-1],
	}
	start := 0
	assign := make([]int, n)
	for i, v := range sorted {
		assign[i] = m.leafFor(v)
	}
	prevHi := 0.0
	for leaf := 0; leaf < numLeaves; leaf++ {
		end := start
		for end < n && assign[end] == leaf {
			end++
		}
		if start == end {
			m.leaves[leaf] = cdfLeaf{model: linear{0, prevHi}, lo: prevHi, hi: prevHi}
			continue
		}
		lm := fitMonotone(xs[start:end], ys[start:end])
		hi := ys[end-1]
		m.leaves[leaf] = cdfLeaf{model: lm, lo: prevHi, hi: hi}
		prevHi = hi
		start = end
	}
	return m
}

// cdfTestValues draws n values of one of the shapes flattening meets: a span
// narrower than the row count, the full int64 range, a band of negatives, a
// Gaussian, and a decreasing run (every fit's slope would be negative were
// the input not sorted first).
func cdfTestValues(rng *rand.Rand, shape, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch shape {
		case 0:
			vals[i] = rng.Int63n(int64(n)/4+1) + 9000
		case 1:
			vals[i] = int64(rng.Uint64())
		case 2:
			vals[i] = -rng.Int63n(1<<40) - 1<<41
		case 3:
			vals[i] = int64(rng.NormFloat64() * 1e6)
		default:
			vals[i] = int64(n-i) * 17
		}
	}
	return vals
}

// TestTrainCDFMatchesReference requires the streamed, radix-ordered TrainCDF
// to return the reference's model bit for bit, and to leave its input alone.
func TestTrainCDFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{1, 2, 3, 17, 64, 65, 1000, 40_000, 300_000}
	for trial := 0; trial < 60; trial++ {
		n := sizes[trial%len(sizes)]
		if n > 1000 && trial >= 2*len(sizes) {
			n = 1 + rng.Intn(5000)
		}
		vals := cdfTestValues(rng, trial%5, n)
		leaves := 1 + rng.Intn(1024)
		before := slices.Clone(vals)
		got, want := TrainCDF(vals, leaves), trainCDFReference(vals, leaves)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (shape %d, n=%d, leaves=%d): model differs from the reference", trial, trial%5, n, leaves)
		}
		if !slices.Equal(vals, before) {
			t.Fatalf("trial %d: TrainCDF reordered its input", trial)
		}
	}
}

// TestTrainCDFAllocatesTwoBuffers pins the training footprint: the sorted
// copy and the sort's second buffer (or, for a narrow column, its counts) and
// nothing else that grows with the input. The reference held four more
// n-length arrays.
func TestTrainCDFAllocatesTwoBuffers(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(24))
	for shape, name := range []string{"narrow", "wide"} {
		vals := cdfTestValues(rng, shape, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		TrainCDF(vals, 1024)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*8*n+128<<10); got > limit {
			t.Errorf("%s: TrainCDF allocated %d bytes for %d values, want at most %d", name, got, n, limit)
		}
		if allocs := testing.AllocsPerRun(3, func() { TrainCDF(vals, 1024) }); allocs > 8 {
			t.Errorf("%s: TrainCDF made %.0f allocations, want a handful", name, allocs)
		}
	}
}

// BenchmarkTrainCDF is one flattening CDF at the leaf count Build uses: a
// column narrower than its row count (dates, quantities, dictionary codes —
// one counting pass) and one spanning the int64 range (eight byte passes).
func BenchmarkTrainCDF(b *testing.B) {
	for shape, name := range []string{"narrow", "wide"} {
		for _, n := range []int{100_000, 2_000_000} {
			vals := cdfTestValues(rand.New(rand.NewSource(25)), shape, n)
			b.Run(fmt.Sprintf("%s/n=%dk", name, n/1000), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					TrainCDF(vals, 1024)
				}
			})
		}
	}
}

package clustered

import (
	"math"
	"math/rand"
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

// lookup is LookupAt over the sorted values themselves.
func lookup(p *positionIndex, sorted []int64, v int64) int {
	return p.LookupAt(func(i int) int64 { return sorted[i] }, v)
}

func TestPositionLookupExact(t *testing.T) {
	for _, numLeaves := range []int{1, 8, 100} {
		vals := skewedValues(8000, 4)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		idx := trainPosition(vals, numLeaves)
		probes := append([]int64{vals[0] - 1, vals[len(vals)-1] + 1}, vals[:200]...)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 500; i++ {
			probes = append(probes, vals[rng.Intn(len(vals))]+rng.Int63n(7)-3)
		}
		for _, v := range probes {
			want := sort.Search(len(vals), func(i int) bool { return vals[i] >= v })
			if got := lookup(idx, vals, v); got != want {
				t.Fatalf("leaves=%d: LookupAt(%d) = %d, want %d", numLeaves, v, got, want)
			}
		}
	}
}

func TestPositionLookupProperty(t *testing.T) {
	f := func(raw []int64, probes []int64) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		idx := trainPosition(raw, 4)
		for _, v := range probes {
			want := sort.Search(len(raw), func(i int) bool { return raw[i] >= v })
			if lookup(idx, raw, v) != want {
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
	idx := trainPosition(nil, 4)
	if lookup(idx, nil, 5) != 0 {
		t.Fatal("empty index LookupAt != 0")
	}
	dup := []int64{3, 3, 3, 3, 3, 3, 7, 7, 7}
	idx = trainPosition(dup, 3)
	if lookup(idx, dup, 3) != 0 || lookup(idx, dup, 4) != 6 || lookup(idx, dup, 7) != 6 || lookup(idx, dup, 8) != 9 {
		t.Fatalf("duplicate lookups wrong: %d %d %d %d",
			lookup(idx, dup, 3), lookup(idx, dup, 4), lookup(idx, dup, 7), lookup(idx, dup, 8))
	}
}

func TestSizeBytesPositive(t *testing.T) {
	vals := skewedValues(1000, 6)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if trainPosition(vals, 16).SizeBytes() <= 0 {
		t.Fatal("positionIndex SizeBytes must be positive")
	}
}

func BenchmarkPositionLookup(b *testing.B) {
	vals := skewedValues(100000, 8)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := trainPosition(vals, 316)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += lookup(idx, vals, vals[i%len(vals)])
	}
	_ = sink
}

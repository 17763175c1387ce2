package colstore

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

type keyRow struct {
	k int64
	r int32
}

// checkRadixSort sorts keys both bare and with a row payload and compares
// with the standard library: slices.Sort for the keys, slices.SortStableFunc
// for the (key, row) pairs. One scratch serves every call, as it does for a
// build's cells.
func checkRadixSort(t *testing.T, name string, keys []int64, s *SortScratch) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	bare := slices.Clone(keys)
	RadixSort(bare, nil, s)
	if !slices.Equal(bare, want) {
		t.Fatalf("%s (n=%d): keys alone are not sorted like slices.Sort", name, len(keys))
	}

	pairs := make([]keyRow, len(keys))
	rows := make([]int32, len(keys))
	for i, k := range keys {
		rows[i] = int32(i)
		pairs[i] = keyRow{k, int32(i)}
	}
	slices.SortStableFunc(pairs, func(a, b keyRow) int { return cmp.Compare(a.k, b.k) })
	carried := slices.Clone(keys)
	RadixSort(carried, rows, s)
	for i, p := range pairs {
		if carried[i] != p.k || rows[i] != p.r {
			t.Fatalf("%s (n=%d): position %d holds (%d, row %d), a stable sort puts (%d, row %d) there",
				name, len(keys), i, carried[i], rows[i], p.k, p.r)
		}
	}
}

func TestRadixSortMatchesStandardSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := map[string]func(i, n int) int64{
		"all equal":        func(i, n int) int64 { return -17 },
		"int64 extremes":   func(i, n int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)] },
		"one varying byte": func(i, n int) int64 { return 0x1122334455660077 | int64(rng.Intn(256))<<8 },
		"already sorted":   func(i, n int) int64 { return int64(i/3) - 40 },
		"reversed":         func(i, n int) int64 { return int64(n-i) * 1_000_003 },
		"narrow, few ties": func(i, n int) int64 { return rng.Int63n(int64(n)*2+1) - int64(n) },
		"narrow, all ties": func(i, n int) int64 { return rng.Int63n(5) - 2 },
		"full range":       func(i, n int) int64 { return int64(rng.Uint64()) },
		"two far clusters": func(i, n int) int64 { return (rng.Int63n(2)*2-1)<<50 + rng.Int63n(300) },
		"nearly sorted":    func(i, n int) int64 { return int64(i) + rng.Int63n(4)*rng.Int63n(2)*100 },
	}
	var s SortScratch
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 2, radixInsertionMax - 1, radixInsertionMax, radixInsertionMax + 1, 1000, 70_000} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = gen(i, n)
			}
			checkRadixSort(t, name, keys, &s)
		}
	}
}

// FuzzRadixSort reads the input as little-endian int64 keys; the first byte
// picks how many of each key's high bytes are cleared, so the mutator reaches
// the narrow spans (counting sort, skipped byte passes) as easily as the wide
// ones. The seed corpus is testdata/fuzz/FuzzRadixSort.
func FuzzRadixSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		keep := 8 * (8 - uint(in[0]%8))
		in = in[1:]
		keys := make([]int64, len(in)/8)
		for i := range keys {
			k := int64(binary.LittleEndian.Uint64(in[8*i:]))
			keys[i] = k << (64 - keep) >> (64 - keep) // sign-extending: narrow spans straddle zero
		}
		checkRadixSort(t, "fuzz", keys, new(SortScratch))
	})
}

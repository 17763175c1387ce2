package octree

import (
	"math/rand"
	"testing"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
)

func buildTree(t *testing.T, n, pageSize int, dims int) (*plan.Tree, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	data := make([][]int64, dims)
	names := make([]string, dims)
	for c := range data {
		names[c] = string(rune('a' + c))
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(1 << 16)
		}
	}
	tbl := colstore.MustNewTable(names, data)
	idxDims := make([]int, dims)
	for i := range idxDims {
		idxDims[i] = i
	}
	idx, err := build(tbl, idxDims, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return idx, data
}

// TestTreeInvariants checks every node: its physical range is consistent
// with its children, its bounds contain every point it owns, and leaves
// respect the page size (unless degenerate).
func TestTreeInvariants(t *testing.T) {
	idx, _ := buildTree(t, 5000, 128, 3)
	var walk func(nd *plan.Node) (int32, int32)
	leafCount := 0
	walk = func(nd *plan.Node) (int32, int32) {
		for r := nd.Start; r < nd.End; r++ {
			for i, d := range idx.Dims {
				v := idx.T.Get(d, int(r))
				if v < nd.Mins[i] || v > nd.Maxs[i] {
					t.Fatalf("row %d outside node bounds on dim %d", r, d)
				}
			}
		}
		if nd.Children == nil {
			leafCount++
			if int(nd.End-nd.Start) > 128 {
				t.Fatalf("leaf holds %d > page size", nd.End-nd.Start)
			}
			return nd.Start, nd.End
		}
		cur := nd.Start
		for _, c := range nd.Children {
			cs, ce := walk(c)
			if cs != cur {
				t.Fatalf("child ranges not contiguous: %d != %d", cs, cur)
			}
			cur = ce
		}
		if cur != nd.End {
			t.Fatalf("children do not cover parent: %d != %d", cur, nd.End)
		}
		return nd.Start, nd.End
	}
	s, e := walk(idx.Root)
	if s != 0 || int(e) != 5000 {
		t.Fatalf("root covers [%d, %d), want [0, 5000)", s, e)
	}
	if leafCount < 5000/128 {
		t.Fatalf("suspiciously few leaves: %d", leafCount)
	}
	if idx.NumNodes < leafCount {
		t.Fatal("node count below leaf count")
	}
}

func TestDuplicateHeavyDataTerminates(t *testing.T) {
	// 90% identical points must not recurse forever.
	n := 2000
	a := make([]int64, n)
	b := make([]int64, n)
	rng := rand.New(rand.NewSource(12))
	for i := range a {
		if i%10 == 0 {
			a[i], b[i] = rng.Int63n(100), rng.Int63n(100)
		} else {
			a[i], b[i] = 42, 42
		}
	}
	tbl := colstore.MustNewTable([]string{"a", "b"}, [][]int64{a, b})
	idx, err := build(tbl, []int{0, 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if idx.T.NumRows() != n {
		t.Fatal("rows lost")
	}
}

func TestHighDimensionalSparseChildren(t *testing.T) {
	// At d=14 a dense child array would need 2^14 slots per node; the
	// sparse representation must stay proportional to the data.
	idx, _ := buildTree(t, 3000, 64, 14)
	if idx.NumNodes > 3000+10 {
		t.Fatalf("node explosion at high d: %d nodes for 3000 points", idx.NumNodes)
	}
}

package kdtree

import (
	"math/rand"
	"testing"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
)

func buildTree(t *testing.T, n, pageSize int) (*plan.Tree, *node) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	data := make([][]int64, 3)
	for c := range data {
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(1 << 12)
		}
	}
	tbl := colstore.MustNewTable([]string{"a", "b", "c"}, data)
	idx, root, err := build(tbl, []int{0, 1, 2}, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return idx, root
}

// TestSplitInvariants checks that at every internal node, the left subtree
// holds values strictly below the split and the right subtree holds values
// at or above it, and ranges partition the table.
func TestSplitInvariants(t *testing.T) {
	idx, root := buildTree(t, 6000, 128)
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.splitDim < 0 || nd.left == nil {
			if int(nd.End-nd.Start) > 128 && nd.splitDim >= 0 {
				t.Fatalf("oversized leaf: %d", nd.End-nd.Start)
			}
			return
		}
		if nd.left.Start != nd.Start || nd.left.End != nd.right.Start || nd.right.End != nd.End {
			t.Fatal("child ranges do not partition parent")
		}
		for r := nd.left.Start; r < nd.left.End; r++ {
			if idx.T.Get(nd.splitDim, int(r)) >= nd.splitVal {
				t.Fatalf("left row %d >= split %d on dim %d", r, nd.splitVal, nd.splitDim)
			}
		}
		for r := nd.right.Start; r < nd.right.End; r++ {
			if idx.T.Get(nd.splitDim, int(r)) < nd.splitVal {
				t.Fatalf("right row %d < split %d on dim %d", r, nd.splitVal, nd.splitDim)
			}
		}
		walk(nd.left)
		walk(nd.right)
	}
	walk(root)
	if root.Start != 0 || int(root.End) != 6000 {
		t.Fatal("root does not cover the table")
	}
}

func TestConstantDimensionSkipped(t *testing.T) {
	n := 1000
	con := make([]int64, n)
	varied := make([]int64, n)
	rng := rand.New(rand.NewSource(22))
	for i := range varied {
		con[i] = 5
		varied[i] = rng.Int63n(1 << 20)
	}
	tbl := colstore.MustNewTable([]string{"con", "var"}, [][]int64{con, varied})
	_, root, err := build(tbl, []int{0, 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.splitDim == 0 {
			t.Fatal("tree split on a constant dimension")
		}
		if nd.left != nil {
			walk(nd.left)
			walk(nd.right)
		}
	}
	walk(root)
}

func TestAllConstantBecomesLeaf(t *testing.T) {
	n := 500
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	tbl := colstore.MustNewTable([]string{"a", "b"}, [][]int64{a, b})
	idx, root, err := build(tbl, []int{0, 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if root.left != nil {
		t.Fatal("fully constant data should be a single (oversized) leaf")
	}
	if idx.NumNodes != 1 {
		t.Fatalf("NumNodes = %d, want 1", idx.NumNodes)
	}
}

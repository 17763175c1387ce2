package rstar

import (
	"math/rand"
	"testing"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
)

func buildTree(t *testing.T, n, pageSize int) *plan.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	data := make([][]int64, 3)
	for c := range data {
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(1 << 14)
		}
	}
	tbl := colstore.MustNewTable([]string{"a", "b", "c"}, data)
	idx, err := build(tbl, []int{0, 1, 2}, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestMBRInvariants checks the R-tree's defining property: every parent's
// bounding rectangle contains its children's, and leaf rectangles contain
// their rows.
func TestMBRInvariants(t *testing.T) {
	idx := buildTree(t, 8000, 256)
	var walk func(nd *plan.Node)
	walk = func(nd *plan.Node) {
		if nd.Children == nil {
			if int(nd.End-nd.Start) > 256 {
				t.Fatalf("oversized leaf: %d", nd.End-nd.Start)
			}
			for r := nd.Start; r < nd.End; r++ {
				for i, d := range idx.Dims {
					v := idx.T.Get(d, int(r))
					if v < nd.Mins[i] || v > nd.Maxs[i] {
						t.Fatalf("row %d outside leaf MBR on dim %d", r, d)
					}
				}
			}
			return
		}
		if len(nd.Children) > DefaultFanout {
			t.Fatalf("node has %d children > fanout", len(nd.Children))
		}
		for _, c := range nd.Children {
			for i := range nd.Mins {
				if c.Mins[i] < nd.Mins[i] || c.Maxs[i] > nd.Maxs[i] {
					t.Fatal("child MBR escapes parent MBR")
				}
			}
			walk(c)
		}
	}
	walk(idx.Root)
}

// TestLeavesPartitionRows ensures STR packing lays out every row exactly
// once, in leaf order.
func TestLeavesPartitionRows(t *testing.T) {
	idx := buildTree(t, 5000, 128)
	var cur int32
	var walk func(nd *plan.Node)
	walk = func(nd *plan.Node) {
		if nd.Children == nil {
			if nd.Start != cur {
				t.Fatalf("leaf starts at %d, want %d", nd.Start, cur)
			}
			cur = nd.End
			return
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(idx.Root)
	if int(cur) != 5000 {
		t.Fatalf("leaves cover %d rows, want 5000", cur)
	}
}

func TestTinyInputs(t *testing.T) {
	tbl := colstore.MustNewTable([]string{"a"}, [][]int64{{9}})
	idx, err := build(tbl, []int{0}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Root == nil {
		t.Fatal("single-row tree must have a root")
	}
	empty := colstore.MustNewTable([]string{"a"}, [][]int64{{}})
	if _, err := build(empty, []int{0}, 16); err != nil {
		t.Fatal(err)
	}
}

// Package baseline builds the baseline indexes of §7.2. Each lives in its
// own package as a planner — a physical order plus a query → spans mapping —
// and runs under the one wrapper and scan stage of package plan; this
// package is the registry over them.
package baseline

import (
	"fmt"

	"flood/internal/baseline/clustered"
	"flood/internal/baseline/fullscan"
	"flood/internal/baseline/gridfile"
	"flood/internal/baseline/kdtree"
	"flood/internal/baseline/octree"
	"flood/internal/baseline/plan"
	"flood/internal/baseline/rstar"
	"flood/internal/baseline/ubtree"
	"flood/internal/baseline/zorder"
	"flood/internal/colstore"
)

// Kind names a baseline index; the values are the public API's spellings.
type Kind string

// The baselines, in the paper's order.
const (
	FullScan    Kind = "fullscan"
	Clustered   Kind = "clustered"
	GridFile    Kind = "gridfile"
	ZOrder      Kind = "zorder"
	UBTree      Kind = "ubtree"
	Hyperoctree Kind = "octree"
	KDTree      Kind = "kdtree"
	RStarTree   Kind = "rstar"
)

// Build constructs the baseline of the given kind over t. dims lists the
// indexed dimensions from most to least selective (Clustered sorts by the
// first, FullScan uses none); pageSize bounds pages, buckets and leaves
// (0 = each baseline's default).
func Build(kind Kind, t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	switch kind {
	case FullScan:
		return fullscan.New(t)
	case Clustered:
		if len(dims) == 0 {
			return nil, fmt.Errorf("baseline: clustered needs a key dimension")
		}
		return clustered.Build(t, dims[0], 0)
	case GridFile:
		return gridfile.Build(t, dims, pageSize)
	case ZOrder:
		return zorder.Build(t, dims, pageSize)
	case UBTree:
		return ubtree.Build(t, dims, pageSize)
	case Hyperoctree:
		return octree.Build(t, dims, pageSize)
	case KDTree:
		return kdtree.Build(t, dims, pageSize)
	case RStarTree:
		return rstar.Build(t, dims, pageSize)
	}
	return nil, fmt.Errorf("baseline: unknown kind %q", kind)
}

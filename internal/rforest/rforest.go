// Package rforest implements random forest regression (bagged CART trees
// with per-split feature subsampling). Flood's cost model uses it to predict
// the weight parameters {wp, wr, ws} of Eq. 1 from per-query statistics
// (§4.1.1); the paper used Python's Scipy, which this stdlib-only
// implementation replaces.
package rforest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Config controls forest training.
type Config struct {
	NumTrees    int     // number of bagged trees (default 20)
	MaxDepth    int     // maximum tree depth (default 12)
	MinLeaf     int     // minimum samples per leaf (default 2)
	FeatureFrac float64 // fraction of features considered per split (default 1/3, min 1)
	Seed        int64   // RNG seed for bootstrapping and feature sampling
}

// DefaultConfig returns the configuration used by the cost model.
func DefaultConfig() Config {
	return Config{NumTrees: 20, MaxDepth: 12, MinLeaf: 2, FeatureFrac: 0.4}
}

func (c Config) withDefaults() Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 20
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = 0.4
	}
	return c
}

// node is one tree node in 16 bytes. Trees are stored in pre-order, so an
// inner node's left child is the node after it; right is the index of its
// right child in the forest's node slice. v is an inner node's threshold and
// a leaf's prediction.
type node struct {
	feature int32 // -1 for leaf
	right   int32
	v       float64
}

// Forest is a trained random forest regressor: every tree's nodes in one
// slice, tree after tree.
type Forest struct {
	nodes []node
	roots []int32 // roots[t] is tree t's first node
}

// Train fits a forest on feature matrix x (row-major, one row per sample)
// and targets y. All rows must have the same width.
func Train(x [][]float64, y []float64, cfg Config) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("rforest: %d samples, %d targets", len(x), len(y))
	}
	nf := len(x[0])
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("rforest: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	trees := make([][]node, cfg.NumTrees)
	nSplitFeats := int(math.Ceil(cfg.FeatureFrac * float64(nf)))
	if nSplitFeats < 1 {
		nSplitFeats = 1
	}
	// Every tree's bootstrap sample and seed come from the one generator, in
	// tree order, before any tree is grown: a tree then depends on nothing
	// but its own draw, and the trees grow on all cores into the forest a
	// single goroutine would have built, node for node.
	type draw struct {
		idx  []int // bootstrap sample
		seed int64
	}
	draws := make([]draw, cfg.NumTrees)
	for t := range draws {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		draws[t] = draw{idx: idx, seed: rng.Int63()}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), cfg.NumTrees); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < cfg.NumTrees; t = int(next.Add(1)) - 1 {
				b := &treeBuilder{
					x: x, y: y,
					cfg:        cfg,
					rng:        rand.New(rand.NewSource(draws[t].seed)),
					splitFeats: nSplitFeats,
				}
				b.build(draws[t].idx, 0)
				trees[t] = b.nodes
			}
		}()
	}
	wg.Wait()
	// Lay the trees end to end; a builder numbers right children from its
	// own root.
	total := 0
	for _, t := range trees {
		total += len(t)
	}
	f := &Forest{nodes: make([]node, 0, total), roots: make([]int32, len(trees))}
	for t, nodes := range trees {
		root := int32(len(f.nodes))
		f.roots[t] = root
		for _, n := range nodes {
			if n.feature >= 0 {
				n.right += root
			}
			f.nodes = append(f.nodes, n)
		}
	}
	return f, nil
}

// Predict returns the forest's prediction (mean over trees) for one feature
// vector.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for _, root := range f.roots {
		s += f.predictTree(root, x)
	}
	return s / float64(len(f.roots))
}

// predictTree walks the tree rooted at node i to its leaf: a value at or
// below the threshold goes to the left child, the node after its parent;
// anything else, NaN included, goes right.
func (f *Forest) predictTree(i int32, x []float64) float64 {
	for {
		n := &f.nodes[i]
		if n.feature < 0 {
			return n.v
		}
		if x[n.feature] <= n.v {
			i++
		} else {
			i = n.right
		}
	}
}

// keyed is one sample's value of the feature a split is being sought on.
type keyed struct {
	v float64
	i int // sample row
}

type treeBuilder struct {
	x          [][]float64
	y          []float64
	cfg        Config
	rng        *rand.Rand
	splitFeats int
	nodes      []node  // this tree in pre-order, right children numbered from its root
	keys       []keyed // bestSplit's scratch
	part       []int   // build's scratch: a node's right samples while it partitions
}

// build grows the subtree over samples idx, which it reorders, and returns
// its node index.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1})
	mean := b.mean(idx)
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || b.constant(idx) {
		b.nodes[self].v = mean
		return self
	}
	feat, thresh, ok := b.bestSplit(idx)
	if !ok {
		b.nodes[self].v = mean
		return self
	}
	// Partition idx stably in place: the left samples move up to the front
	// in their order, the right ones wait in the builder's one scratch slice
	// and follow in theirs. The children then own disjoint halves of idx.
	nl, right := 0, b.part[:0]
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	b.part = right
	if nl < b.cfg.MinLeaf || len(idx)-nl < b.cfg.MinLeaf {
		b.nodes[self].v = mean
		return self
	}
	b.build(idx[:nl], depth+1) // self+1: pre-order
	ri := b.build(idx[nl:], depth+1)
	b.nodes[self] = node{feature: int32(feat), right: ri, v: thresh}
	return self
}

func (b *treeBuilder) mean(idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += b.y[i]
	}
	return s / float64(len(idx))
}

func (b *treeBuilder) constant(idx []int) bool {
	for _, i := range idx[1:] {
		if b.y[i] != b.y[idx[0]] {
			return false
		}
	}
	return true
}

// bestSplit finds the (feature, threshold) minimizing the children's summed
// squared error over a random feature subset.
func (b *treeBuilder) bestSplit(idx []int) (feat int, thresh float64, ok bool) {
	nf := len(b.x[0])
	feats := b.rng.Perm(nf)[:b.splitFeats]
	bestGain := math.Inf(-1)
	// Parent SSE terms.
	var pSum, pSumSq float64
	for _, i := range idx {
		pSum += b.y[i]
		pSumSq += b.y[i] * b.y[i]
	}
	n := float64(len(idx))
	parentSSE := pSumSq - pSum*pSum/n
	if cap(b.keys) < len(idx) {
		b.keys = make([]keyed, len(idx)) // the root's samples: the most any node has
	}
	keys := b.keys[:len(idx)]
	for _, f := range feats {
		for k, i := range idx {
			keys[k] = keyed{b.x[i][f], i}
		}
		// The comparison sort.Slice made on the rows, so the same pdqsort
		// orders ties, and sums below, exactly as it did: only "less"
		// (a negative result) is ever tested.
		slices.SortFunc(keys, func(a, c keyed) int {
			if a.v < c.v {
				return -1
			}
			return 0
		})
		var lSum, lSumSq float64
		for k := 0; k < len(keys)-1; k++ {
			i := keys[k].i
			lSum += b.y[i]
			lSumSq += b.y[i] * b.y[i]
			// Can't split between equal feature values.
			if keys[k].v == keys[k+1].v {
				continue
			}
			ln := float64(k + 1)
			rn := n - ln
			rSum := pSum - lSum
			rSumSq := pSumSq - lSumSq
			sse := (lSumSq - lSum*lSum/ln) + (rSumSq - rSum*rSum/rn)
			gain := parentSSE - sse
			if gain > bestGain {
				bestGain = gain
				feat = f
				thresh = (keys[k].v + keys[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

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
	"sort"
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

type node struct {
	feature int32 // -1 for leaf
	left    int32
	right   int32
	thresh  float64
	value   float64 // leaf prediction
}

type tree struct {
	nodes []node
}

// Forest is a trained random forest regressor.
type Forest struct {
	trees     []tree
	nFeatures int
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
	f := &Forest{trees: make([]tree, cfg.NumTrees), nFeatures: nf}
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
				f.trees[t] = tree{nodes: b.nodes}
			}
		}()
	}
	wg.Wait()
	return f, nil
}

// Predict returns the forest's prediction (mean over trees) for one feature
// vector.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for i := range f.trees {
		s += f.trees[i].predict(x)
	}
	return s / float64(len(f.trees))
}

// NumFeatures returns the feature width the forest was trained with.
func (f *Forest) NumFeatures() int { return f.nFeatures }

func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

type treeBuilder struct {
	x          [][]float64
	y          []float64
	cfg        Config
	rng        *rand.Rand
	splitFeats int
	nodes      []node
}

// build grows the subtree over samples idx and returns its node index.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1})
	mean := b.mean(idx)
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || b.constant(idx) {
		b.nodes[self].value = mean
		return self
	}
	feat, thresh, ok := b.bestSplit(idx)
	if !ok {
		b.nodes[self].value = mean
		return self
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		b.nodes[self].value = mean
		return self
	}
	li := b.build(left, depth+1)
	ri := b.build(right, depth+1)
	b.nodes[self] = node{feature: int32(feat), left: li, right: ri, thresh: thresh}
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
	order := make([]int, len(idx))
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, c int) bool { return b.x[order[a]][f] < b.x[order[c]][f] })
		var lSum, lSumSq float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lSum += b.y[i]
			lSumSq += b.y[i] * b.y[i]
			// Can't split between equal feature values.
			if b.x[order[k]][f] == b.x[order[k+1]][f] {
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
				thresh = (b.x[order[k]][f] + b.x[order[k+1]][f]) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

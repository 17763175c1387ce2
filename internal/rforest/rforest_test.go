package rforest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("want error for empty training set")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []float64{5, 5, 5, 5}
	f, err := Train(x, y, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{100, -100}); got != 5 {
		t.Fatalf("constant target predicted %f, want 5", got)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		if a > 5 {
			y = append(y, 100)
		} else {
			y = append(y, 1)
		}
	}
	f, err := Train(x, y, Config{NumTrees: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.Predict([]float64{9, 5}); math.Abs(p-100) > 15 {
		t.Fatalf("Predict(a=9) = %f, want ~100", p)
	}
	if p := f.Predict([]float64{1, 5}); math.Abs(p-1) > 15 {
		t.Fatalf("Predict(a=1) = %f, want ~1", p)
	}
}

func TestLearnsNonLinearInteraction(t *testing.T) {
	// y = a*b, the kind of interdependence §4.1.2 argues needs ML.
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		a, b := rng.Float64()*4, rng.Float64()*4
		x = append(x, []float64{a, b})
		y = append(y, a*b)
	}
	f, err := Train(x, y, Config{NumTrees: 25, MaxDepth: 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sse, sst float64
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	for i := range x {
		d := f.Predict(x[i]) - y[i]
		sse += d * d
		m := y[i] - meanY
		sst += m * m
	}
	if r2 := 1 - sse/sst; r2 < 0.9 {
		t.Fatalf("R^2 = %f on y=a*b, want >= 0.9", r2)
	}
}

func TestPredictionsWithinTargetRange(t *testing.T) {
	// Tree means can never extrapolate outside the observed target range.
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Float64()*7+3)
	}
	f, err := Train(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := f.Predict([]float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10})
		if p < 3 || p > 10 {
			t.Fatalf("prediction %f outside target range [3, 10]", p)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64()})
		y = append(y, rng.Float64())
	}
	f1, _ := Train(x, y, Config{Seed: 42})
	f2, _ := Train(x, y, Config{Seed: 42})
	for i := 0; i < 20; i++ {
		probe := []float64{rng.Float64(), rng.Float64()}
		if f1.Predict(probe) != f2.Predict(probe) {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestSingleSample(t *testing.T) {
	f, err := Train([][]float64{{1, 2, 3}}, []float64{9}, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f.Predict([]float64{0, 0, 0}) != 9 {
		t.Fatal("single-sample forest should predict the sample")
	}
}

func BenchmarkForestPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Float64())
	}
	f, _ := Train(x, y, Config{Seed: 11})
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Predict(x[i%len(x)])
	}
	_ = sink
}

// goldenInput draws a fixed training set. Features are quantised so many
// samples tie on a feature, the last feature is a function of the first
// (two features that split the samples identically, as the cost model's
// TotalCells and AvgCellSize do), and the target mixes a step, an
// interaction and noise: the shapes under which a reordered tie or a
// different summation order picks a different split.
func goldenInput(n, nf int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			row[j] = float64(rng.Intn(40)) / 4
		}
		row[nf-1] = 1000 / (row[0] + 1)
		x[i] = row
		y[i] = row[0]*row[1] + rng.NormFloat64()
		if row[2] > 5 {
			y[i] += 20
		}
	}
	return x, y
}

// forestDigest hashes the training width nf, then every node of every tree,
// in order: feature, threshold bits, value bits, children. It hashes the fields of the pointer-free tree
// the digests were recorded from — per tree its node count, and per node a
// leaf's value with zero threshold and children, or an inner node's
// threshold with zero value and its children numbered from the tree's root —
// so the compact layout reproduces them.
func forestDigest(f *Forest, nf int) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(nf))
	for t, root := range f.roots {
		end := int32(len(f.nodes))
		if t+1 < len(f.roots) {
			end = f.roots[t+1]
		}
		put(uint64(end - root))
		for i := root; i < end; i++ {
			n := f.nodes[i]
			var thresh, value float64
			var left, right int32
			if n.feature < 0 {
				value = n.v
			} else {
				thresh, left, right = n.v, i+1-root, n.right-root
			}
			put(uint64(int64(n.feature)))
			put(math.Float64bits(thresh))
			put(math.Float64bits(value))
			put(uint64(int64(left)))
			put(uint64(int64(right)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForestGolden pins the trained forest node for node. The repository
// benchmark's frozen cost model is Train over committed samples with fixed
// seeds, so a forest that differs by one bit is a different model and
// different layouts; the digests were recorded before tree building moved
// onto worker goroutines and must never change.
func TestForestGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, nf int
		seed  int64
		cfg   Config
		want  string
	}{
		{"default1000x8", 1000, 8, 11, func() Config { c := DefaultConfig(); c.Seed = 42; return c }(),
			"2f03c72978a8ea1309fd1b35896b0fc7b5513512aa33ae2525d1f092f8785e3b"},
		{"small300x5", 300, 5, 12, Config{NumTrees: 7, MaxDepth: 6, MinLeaf: 3, FeatureFrac: 0.7, Seed: 9},
			"364ed8c0636258097d59f1077c18356f4edc7cd18e975ee17d93814019b70def"},
	} {
		x, y := goldenInput(tc.n, tc.nf, tc.seed)
		f, err := Train(x, y, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := forestDigest(f, tc.nf); got != tc.want {
			t.Errorf("%s: forest digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkForestTrain is one of the cost model's three regressors: 1,000
// samples of 8 features under the default configuration.
func BenchmarkForestTrain(b *testing.B) {
	x, y := goldenInput(1000, 8, 11)
	cfg := DefaultConfig()
	cfg.Seed = 42
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// refNode is a tree node as a pointer structure: the reference Predict is
// checked against.
type refNode struct {
	feature     int32
	thresh, val float64
	left, right *refNode
}

// refTrees rebuilds each tree of f as pointer nodes, reading the compact
// layout's rule once: a left child is the next node.
func refTrees(f *Forest) []*refNode {
	var at func(i int32) *refNode
	at = func(i int32) *refNode {
		n := f.nodes[i]
		if n.feature < 0 {
			return &refNode{feature: -1, val: n.v}
		}
		return &refNode{feature: n.feature, thresh: n.v, left: at(i + 1), right: at(n.right)}
	}
	out := make([]*refNode, len(f.roots))
	for t, root := range f.roots {
		out[t] = at(root)
	}
	return out
}

// refPredict walks every pointer tree with a branch and averages in tree order.
func refPredict(trees []*refNode, x []float64) float64 {
	var s float64
	for _, n := range trees {
		for n.feature >= 0 {
			if x[n.feature] <= n.thresh {
				n = n.left
			} else {
				n = n.right
			}
		}
		s += n.val
	}
	return s / float64(len(trees))
}

// TestPredictMatchesPointerWalk holds the branch-free walk over the compact
// nodes to a pointer walk, bit for bit, on trained forests — at training
// points, at thresholds exactly, off the training range and at NaN — and
// requires that it allocate nothing.
func TestPredictMatchesPointerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		n, nf int
		cfg   Config
	}{
		{1000, 8, func() Config { c := DefaultConfig(); c.Seed = 42; return c }()},
		{300, 5, Config{NumTrees: 7, MaxDepth: 6, MinLeaf: 3, FeatureFrac: 0.7, Seed: 9}},
		{50, 3, Config{NumTrees: 3, MaxDepth: 20, MinLeaf: 1, Seed: 10}},
	} {
		x, y := goldenInput(tc.n, tc.nf, int64(tc.n))
		f, err := Train(x, y, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := refTrees(f)
		probes := append([][]float64(nil), x...)
		for i := 0; i < 500; i++ {
			p := make([]float64, tc.nf)
			for j := range p {
				switch rng.Intn(4) {
				case 0: // a threshold exactly, where <= decides
					p[j] = f.nodes[rng.Intn(len(f.nodes))].v
				case 1:
					p[j] = math.NaN()
				default:
					p[j] = rng.NormFloat64() * 20
				}
			}
			probes = append(probes, p)
		}
		for _, p := range probes {
			if got, want := f.Predict(p), refPredict(ref, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Predict(%v) = %v, pointer walk %v", p, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { predictSink = f.Predict(probes[0]) }); allocs != 0 {
			t.Fatalf("Predict allocated %.1f times, want 0", allocs)
		}
	}
}

var predictSink float64

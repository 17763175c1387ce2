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
	if f.NumFeatures() != 3 {
		t.Fatalf("NumFeatures = %d", f.NumFeatures())
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

// forestDigest hashes every node of every tree, in order: feature, threshold
// bits, value bits, children.
func forestDigest(f *Forest) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(f.nFeatures))
	for _, t := range f.trees {
		put(uint64(len(t.nodes)))
		for _, n := range t.nodes {
			put(uint64(int64(n.feature)))
			put(math.Float64bits(n.thresh))
			put(math.Float64bits(n.value))
			put(uint64(int64(n.left)))
			put(uint64(int64(n.right)))
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
		if got := forestDigest(f); got != tc.want {
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

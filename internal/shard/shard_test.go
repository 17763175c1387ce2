package shard

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flood/internal/query"
)

func TestShardRouterBasics(t *testing.T) {
	r, err := NewRouter(2, []int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	if got := r.Dim(); got != 2 {
		t.Fatalf("Dim = %d, want 2", got)
	}
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {29, 2}, {30, 3}, {math.MaxInt64, 3},
	}
	for _, c := range cases {
		if got := r.Shard(c.v); got != c.want {
			t.Errorf("Shard(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestShardRouterBounds(t *testing.T) {
	r, err := NewRouter(0, []int64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumShards(); i++ {
		lo, hi := r.Bounds(i)
		if got := r.Shard(lo); got != i {
			t.Errorf("shard %d lower bound %d routes to %d", i, lo, got)
		}
		if got := r.Shard(hi); got != i {
			t.Errorf("shard %d upper bound %d routes to %d", i, hi, got)
		}
	}
	if lo, _ := r.Bounds(0); lo != math.MinInt64 {
		t.Errorf("first shard lower bound = %d, want MinInt64", lo)
	}
	if _, hi := r.Bounds(2); hi != math.MaxInt64 {
		t.Errorf("last shard upper bound = %d, want MaxInt64", hi)
	}
}

func TestShardRouterRangePruning(t *testing.T) {
	r, err := NewRouter(0, []int64{100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi      int64
		first, last int
	}{
		{0, 50, 0, 0},                        // fully below the first split: one shard
		{150, 160, 1, 1},                     // contained in shard 1
		{50, 250, 0, 2},                      // spans three shards
		{300, 400, 3, 3},                     // last shard only
		{math.MinInt64, math.MaxInt64, 0, 3}, // unbounded: all shards
		{100, 199, 1, 1},                     // exactly one shard's interval
		{99, 100, 0, 1},                      // straddles a split point
	}
	for _, c := range cases {
		first, last := r.ShardRange(c.lo, c.hi)
		if first != c.first || last != c.last {
			t.Errorf("ShardRange(%d, %d) = [%d, %d], want [%d, %d]",
				c.lo, c.hi, first, last, c.first, c.last)
		}
	}
}

func TestShardRouterRejectsUnsortedSplits(t *testing.T) {
	if _, err := NewRouter(0, []int64{20, 10}); err == nil {
		t.Fatal("NewRouter accepted decreasing splits")
	}
	if _, err := NewRouter(0, []int64{10, 10}); err == nil {
		t.Fatal("NewRouter accepted duplicate splits")
	}
}

// TestShardSplitsBalanceSkew fits learned-CDF splits on a heavily skewed
// sample and checks every shard lands within 2x of the even share — the
// balance property naive equal-width range partitioning lacks.
func TestShardSplitsBalanceSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k = 200_000, 8
	vals := make([]int64, n)
	for i := range vals {
		// Exponential-ish skew: most mass near zero, long tail to ~1e6.
		vals[i] = int64(math.Exp(rng.Float64()*13.8)) - 1
	}
	splits := FitSplits(vals, k)
	r, err := NewRouter(0, splits)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, r.NumShards())
	for _, v := range vals {
		counts[r.Shard(v)]++
	}
	even := float64(n) / float64(r.NumShards())
	for i, c := range counts {
		if float64(c) > 2*even || float64(c) < even/2 {
			t.Errorf("shard %d holds %d rows, want within 2x of %.0f (counts %v)", i, c, even, counts)
		}
	}
}

func TestShardSplitsDegenerate(t *testing.T) {
	if s := FitSplits([]int64{5, 5, 5, 5}, 4); s != nil {
		t.Errorf("constant column produced splits %v, want none", s)
	}
	if s := FitSplits(nil, 4); s != nil {
		t.Errorf("empty column produced splits %v, want none", s)
	}
	if s := FitSplits([]int64{1, 2, 3}, 1); s != nil {
		t.Errorf("k=1 produced splits %v, want none", s)
	}
	// Two distinct values cannot support 8 shards; splits must still be
	// strictly increasing (shard count collapses instead of duplicating).
	s := FitSplits([]int64{0, 0, 0, 1, 1, 1}, 8)
	if err := validateSplits(s); err != nil {
		t.Fatal(err)
	}
	if len(s) > 1 {
		t.Errorf("two-value column produced %d splits, want <= 1", len(s))
	}
}

func TestShardPartitionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := make([]int64, 10_000)
	for i := range col {
		col[i] = rng.Int63n(1000)
	}
	r, err := NewRouter(0, FitSplits(col, 4))
	if err != nil {
		t.Fatal(err)
	}
	parts := Partition(col, r)
	seen := make([]bool, len(col))
	total := 0
	for s, rows := range parts {
		total += len(rows)
		prev := -1
		for _, row := range rows {
			if seen[row] {
				t.Fatalf("row %d assigned twice", row)
			}
			seen[row] = true
			if row <= prev {
				t.Fatalf("shard %d rows not in row order: %d after %d", s, row, prev)
			}
			prev = row
			if got := r.Shard(col[row]); got != s {
				t.Fatalf("row %d (value %d) in shard %d, routes to %d", row, col[row], s, got)
			}
		}
	}
	if total != len(col) {
		t.Fatalf("partition covers %d rows, want %d", total, len(col))
	}
}

func TestShardChooseDim(t *testing.T) {
	q := func(dims ...int) query.Query {
		var qq query.Query
		qq.Ranges = make([]query.Range, 3)
		for _, d := range dims {
			qq.Ranges[d] = query.Range{Min: 0, Max: 10, Present: true}
		}
		return qq
	}
	queries := []query.Query{q(1), q(1, 2), q(1), q(0)}
	if got := ChooseDim(queries, 3); got != 1 {
		t.Fatalf("ChooseDim = %d, want 1", got)
	}
	if got := ChooseDim(nil, 3); got != 0 {
		t.Fatalf("ChooseDim(empty) = %d, want 0", got)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{Dim: 1, Splits: []int64{-5, 100, 7000}, ShardDirs: []string{"shard-0000", "shard-0001", "shard-0002", "shard-0003"}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != m.Dim {
		t.Errorf("Dim = %d, want %d", got.Dim, m.Dim)
	}
	if len(got.Splits) != len(m.Splits) || len(got.ShardDirs) != len(m.ShardDirs) {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	for i := range m.Splits {
		if got.Splits[i] != m.Splits[i] {
			t.Errorf("Splits[%d] = %d, want %d", i, got.Splits[i], m.Splits[i])
		}
	}
	for i := range m.ShardDirs {
		if got.ShardDirs[i] != m.ShardDirs[i] {
			t.Errorf("ShardDirs[%d] = %q, want %q", i, got.ShardDirs[i], m.ShardDirs[i])
		}
	}
}

// TestManifestAtomicReplace overwrites an existing manifest and checks the
// new content wins — the checkpoint path rewrites the manifest in place.
func TestManifestAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	old := &Manifest{Dim: 0, Splits: []int64{1}, ShardDirs: []string{"a", "b"}}
	if err := WriteManifest(dir, old); err != nil {
		t.Fatal(err)
	}
	next := &Manifest{Dim: 2, Splits: []int64{9, 99}, ShardDirs: []string{"a", "b", "c"}}
	if err := WriteManifest(dir, next); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 2 || len(got.Splits) != 2 {
		t.Fatalf("read back %+v, want the replacement", got)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != ManifestName {
			t.Errorf("unexpected file %q after atomic replace", e.Name())
		}
	}
}

// TestManifestCorruptionDetected flips one byte anywhere in the manifest
// and requires ReadManifest to fail rather than return damaged splits.
func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{Dim: 1, Splits: []int64{10, 20}, ShardDirs: []string{"s0", "s1", "s2"}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off++ {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Fatalf("byte %d flip went undetected", off)
		}
	}
	// Truncations at every length must also fail.
	for n := 0; n < len(orig); n++ {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// FuzzManifestDecode writes arbitrary bytes as a store's manifest file.
// ReadManifest must never panic and may only fail with an error; a manifest
// it accepts must be valid and must read back unchanged after WriteManifest.
// Seeds: a valid manifest, every truncation of it, and a flipped byte.
func FuzzManifestDecode(f *testing.F) {
	dir := f.TempDir()
	m := &Manifest{Dim: 1, Splits: []int64{-5, 100, 7000}, ShardDirs: []string{"shard-0000", "shard-0001", "shard-0002", "shard-0003"}}
	if err := WriteManifest(dir, m); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadManifest(dir)
		if err != nil {
			if got != nil {
				t.Fatalf("ReadManifest returned a manifest with its error %v", err)
			}
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted an invalid manifest %+v: %v", got, err)
		}
		out := t.TempDir()
		if err := WriteManifest(out, got); err != nil {
			t.Fatalf("accepted manifest %+v does not write: %v", got, err)
		}
		back, err := ReadManifest(out)
		if err != nil {
			t.Fatalf("accepted manifest %+v does not read back: %v", got, err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("manifest %+v reads back as %+v", got, back)
		}
	})
}

func TestManifestValidate(t *testing.T) {
	bad := []*Manifest{
		{Dim: 0, Splits: []int64{2, 1}, ShardDirs: []string{"a", "b", "c"}},
		{Dim: 0, Splits: []int64{1}, ShardDirs: []string{"a"}},
		{Dim: 0, Splits: []int64{1}, ShardDirs: []string{"a", ""}},
		{Dim: 0, Splits: []int64{1}, ShardDirs: []string{"a", "x/y"}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid manifest %+v accepted", i, m)
		}
	}
}

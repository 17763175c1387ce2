package flood

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flood/internal/dataset"
	"flood/internal/shard"
	"flood/internal/workload"
)

func createShardedStore(t *testing.T, dir string) (*ShardedIndex, *dataset.Dataset, []Query) {
	t.Helper()
	ds := dataset.Sales(4000, 501)
	queries := workload.Standard(ds, 20, 502)
	s, err := CreateShardedDurable(dir, ds.Table, queries, &ShardedOptions{
		Shards:   4,
		Build:    &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 503},
		Adaptive: &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, ds, queries
}

// TestShardedDurableRecovery is the sharded durability round trip: create a
// store, insert across shards without checkpointing, close, reopen through
// the manifest, and check every acknowledged write recovered into the shard
// that owns it (WAL-tail replay per shard).
func TestShardedDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	s, ds, _ := createShardedStore(t, dir)
	dim := s.SplitDim()
	splits := append([]int64(nil), s.Splits()...)
	nd := ds.Table.NumCols()
	markerCol := ds.ColumnIndex("quantity")
	if markerCol == dim {
		markerCol = ds.ColumnIndex("date")
	}
	rng := rand.New(rand.NewSource(504))
	const added = 60
	for i := 0; i < added; i++ {
		row := markerRow(ds, rng, markerCol, i)
		// Spread inserts across the full key range, boundaries included.
		if len(splits) > 0 && i < len(splits) {
			row[dim] = splits[i]
		}
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	marker := NewQuery(nd).WithRange(markerCol, 5000, 6000)
	if got := countOf(t, s, marker); got != added {
		t.Fatalf("marker count %d before close, want %d", got, added)
	}
	total := countOf(t, s, NewQuery(nd))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, rep, err := openShardedDurable(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(rep.Shards) != s.NumShards() {
		t.Fatalf("recovery reported %d shards, want %d", len(rep.Shards), s.NumShards())
	}
	if rep.ReplayedRows != added {
		t.Fatalf("recovery replayed %d rows, want %d", rep.ReplayedRows, added)
	}
	if got := countOf(t, r, marker); got != added {
		t.Fatalf("marker count %d after recovery, want %d", got, added)
	}
	if got := countOf(t, r, NewQuery(nd)); got != total {
		t.Fatalf("total count %d after recovery, want %d", got, total)
	}
	if r.SplitDim() != dim {
		t.Fatalf("recovered split dim %d, want %d", r.SplitDim(), dim)
	}
	for i, sp := range r.Splits() {
		if sp != splits[i] {
			t.Fatalf("recovered split %d = %d, want %d", i, sp, splits[i])
		}
	}
}

// TestShardedDurableCheckpoint checks that a checkpoint absorbs every
// shard's WAL into its snapshot: a reopen replays nothing and still sees
// every row, and mutations (deletes) survive through the snapshot.
func TestShardedDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, ds, _ := createShardedStore(t, dir)
	nd := ds.Table.NumCols()
	dateCol := ds.ColumnIndex("date")
	slice := NewQuery(nd).WithRange(dateCol, 0, 20)
	deleted, err := s.Delete(slice)
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("delete slice matched nothing")
	}
	rng := rand.New(rand.NewSource(505))
	markerCol := ds.ColumnIndex("quantity")
	if markerCol == s.SplitDim() {
		markerCol = dateCol
	}
	for i := 0; i < 25; i++ {
		if err := s.Insert(markerRow(ds, rng, markerCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := countOf(t, s, NewQuery(nd))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, rep, err := openShardedDurable(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep.ReplayedRows != 0 {
		t.Fatalf("post-checkpoint recovery replayed %d rows, want 0", rep.ReplayedRows)
	}
	if got := countOf(t, r, NewQuery(nd)); got != want {
		t.Fatalf("total count %d after checkpointed recovery, want %d", got, want)
	}
	if got := countOf(t, r, slice); got != 0 {
		t.Fatalf("%d deleted rows resurrected by recovery", got)
	}
}

// TestShardedManifestGatekeeps pins the commit-point property: a root whose
// manifest is corrupt (a typed corruption error) or missing (fs.ErrNotExist)
// refuses to open, even though every shard directory underneath is intact. A shard's snapshot where the manifest
// belongs, and the manifest where a snapshot belongs, fail with ErrVersion:
// the two formats can never be confused.
func TestShardedManifestGatekeeps(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := createShardedStore(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shard.ManifestName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte in the middle of the payload.
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openShardedDurable(dir, nil); !corruptionTyped(err) {
		t.Fatalf("corrupt manifest: err %v, want a typed corruption error", err)
	}

	// Remove it entirely — the crash-mid-create shape.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openShardedDurable(dir, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("manifest-less root: err %v, want fs.ErrNotExist", err)
	}

	// A snapshot is no manifest, and the manifest no snapshot.
	snap, err := os.ReadFile(filepath.Join(dir, "shard-0000", snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openShardedDurable(dir, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("a snapshot as the manifest: err %v, want ErrVersion", err)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("the manifest as a snapshot: err %v, want ErrVersion", err)
	}

	// Restored, the store opens again.
	r, _, err := openShardedDurable(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestShardedDurableWriteRouting checks the durable mutation surface routes
// through each shard's WAL: an insert acknowledged by the sharded facade is
// recoverable from the owning shard's directory alone.
func TestShardedDurableWriteRouting(t *testing.T) {
	dir := t.TempDir()
	s, ds, _ := createShardedStore(t, dir)
	splits := s.Splits()
	if len(splits) == 0 {
		t.Skip("column collapsed to one shard")
	}
	dim := s.SplitDim()
	markerCol := ds.ColumnIndex("quantity")
	if markerCol == dim {
		markerCol = ds.ColumnIndex("date")
	}
	row := markerRow(ds, rand.New(rand.NewSource(506)), markerCol, 0)
	row[dim] = splits[0] // boundary value: owned by shard 1
	if err := s.Insert(row); err != nil {
		t.Fatal(err)
	}
	owner := s.router.Shard(splits[0])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	d, rep, err := OpenDurable(filepath.Join(dir, shardDirName(owner)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rep.ReplayedRows != 1 {
		t.Fatalf("owning shard replayed %d rows, want the 1 routed insert", rep.ReplayedRows)
	}
}

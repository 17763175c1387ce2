package flood

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"flood/internal/shard"
)

// ShardedRecoveryReport describes what openShardedDurable or OpenStore
// reconstructed: one RecoveryReport per shard (one entry for a flat store)
// plus the totals a caller usually wants.
type ShardedRecoveryReport struct {
	// Shards holds each shard's recovery report, in shard order.
	Shards []RecoveryReport
	// SnapshotRows and ReplayedRows are the per-shard sums.
	SnapshotRows int
	ReplayedRows int
	// TruncatedTail reports that at least one shard's newest WAL segment was
	// cut back to its last valid record.
	TruncatedTail bool
}

// shardDirName names shard i's subdirectory under a sharded store's root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// CreateShardedDurable initializes dir as a crash-safe sharded store: the
// table is partitioned and built exactly as NewSharded does, each shard gets
// its own durable subdirectory (snapshot plus WAL, see CreateDurable), and a
// checksummed manifest written last records the split dimension, split
// points, and shard directories. The manifest is the store's commit point —
// recovery refuses a root without one, so a crash mid-create leaves a
// directory that fails to open rather than a store missing shards.
func CreateShardedDurable(dir string, tbl *Table, train []Query, opts *ShardedOptions, dopts *DurableOptions) (*ShardedIndex, error) {
	o := opts.withDefaults()
	r, floods, err := planShards(tbl, train, o)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	do := dopts.orDefault()
	if do.Adaptive == nil {
		do.Adaptive = o.Adaptive
	}
	shards := make([]*AdaptiveIndex, 0, len(floods))
	m := &shard.Manifest{Dim: r.Dim(), Splits: r.Splits(), ShardDirs: make([]string, len(floods))}
	for i, f := range floods {
		m.ShardDirs[i] = shardDirName(i)
		d, err := CreateDurable(filepath.Join(dir, m.ShardDirs[i]), f, &do)
		if err != nil {
			closeAll(shards)
			return nil, fmt.Errorf("flood: creating durable shard %d: %w", i, err)
		}
		shards = append(shards, d)
	}
	if err := shard.WriteManifest(dir, m); err != nil {
		closeAll(shards)
		return nil, fmt.Errorf("flood: writing shard manifest: %w", err)
	}
	return newShardedIndex(r, shards), nil
}

// closeAll closes every shard, keeping the first error; nil entries (shards
// that failed to open) are skipped.
func closeAll(shards []*AdaptiveIndex) error {
	var first error
	for _, a := range shards {
		if a == nil {
			continue
		}
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openShardedDurable reopens a sharded store: the manifest is read and
// validated first, then every shard's durable directory recovers
// independently and in parallel — snapshot restore plus WAL-tail replay per
// shard (see OpenDurable), so recovery time scales with the largest shard,
// not the table. Acknowledged writes recover into the shard that owns them.
func openShardedDurable(dir string, dopts *DurableOptions) (*ShardedIndex, ShardedRecoveryReport, error) {
	var rep ShardedRecoveryReport
	m, err := shard.ReadManifest(dir)
	if err != nil {
		return nil, rep, err
	}
	r, err := m.Router()
	if err != nil {
		return nil, rep, err
	}
	n := m.NumShards()
	shards := make([]*AdaptiveIndex, n)
	reps := make([]RecoveryReport, n)
	err = eachShard(n, "recovering", func(i int) (err error) {
		shards[i], reps[i], err = OpenDurable(filepath.Join(dir, m.ShardDirs[i]), dopts)
		return err
	})
	if err != nil {
		closeAll(shards)
		return nil, rep, err
	}
	return newShardedIndex(r, shards), foldReports(reps), nil
}

// foldReports totals per-shard recovery reports.
func foldReports(reps []RecoveryReport) ShardedRecoveryReport {
	rep := ShardedRecoveryReport{Shards: reps}
	for _, sr := range reps {
		rep.SnapshotRows += sr.SnapshotRows
		rep.ReplayedRows += sr.ReplayedRows
		rep.TruncatedTail = rep.TruncatedTail || sr.TruncatedTail
	}
	return rep
}

// OpenStore reopens whichever store dir holds, told apart by the directory's
// own layout: a shard manifest reopens sharded (openShardedDurable), a
// snapshot reopens flat (OpenDurable, its report the one entry of Shards). A
// directory holding neither — empty, missing, or a sharded create that
// crashed before its manifest — is an error satisfying
// errors.Is(err, fs.ErrNotExist), which is how a caller decides to create;
// no other failure satisfies it, so a store that is there but has lost a
// file is never taken for an empty directory and created over.
func OpenStore(dir string, opts *DurableOptions) (Store, ShardedRecoveryReport, error) {
	holds := func(name string) bool {
		_, err := os.Stat(filepath.Join(dir, name))
		return err == nil
	}
	var store Store
	var rep ShardedRecoveryReport
	var err error
	switch {
	case holds(shard.ManifestName):
		store, rep, err = openShardedDurable(dir, opts)
	case holds(snapshotFile):
		var r RecoveryReport
		store, r, err = OpenDurable(dir, opts)
		rep = foldReports([]RecoveryReport{r})
	default:
		return nil, rep, fmt.Errorf("flood: %s holds neither a shard manifest nor a snapshot: %w", dir, fs.ErrNotExist)
	}
	if errors.Is(err, fs.ErrNotExist) {
		err = fmt.Errorf("flood: the store in %s is missing a file: %v", dir, err)
	}
	if err != nil {
		return nil, rep, err
	}
	return store, rep, nil
}

// Checkpoint absorbs every shard's WAL into its snapshot (see
// AdaptiveIndex.Checkpoint), running the shards in parallel; the manifest is
// immutable after create, so a sharded checkpoint is exactly the set of
// per-shard checkpoints. All shards are attempted even when one fails; the
// first error is returned. No-op (nil) on an in-memory ShardedIndex.
func (s *ShardedIndex) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return eachShard(len(s.shards), "checkpointing", func(i int) error { return s.shards[i].Checkpoint() })
}

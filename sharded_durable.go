package flood

import (
	"fmt"
	"os"
	"path/filepath"

	"flood/internal/shard"
)

// ShardedRecoveryReport describes what OpenShardedDurable reconstructed:
// one RecoveryReport per shard plus the totals a caller usually wants.
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
	durs := make([]*DurableIndex, 0, len(floods))
	m := &shard.Manifest{Dim: r.Dim(), Splits: r.Splits(), ShardDirs: make([]string, len(floods))}
	for i, f := range floods {
		m.ShardDirs[i] = shardDirName(i)
		d, err := CreateDurable(filepath.Join(dir, m.ShardDirs[i]), f, &do)
		if err != nil {
			closeAll(durs)
			return nil, fmt.Errorf("flood: creating durable shard %d: %w", i, err)
		}
		durs = append(durs, d)
	}
	if err := shard.WriteManifest(dir, m); err != nil {
		closeAll(durs)
		return nil, fmt.Errorf("flood: writing shard manifest: %w", err)
	}
	return newShardedDurable(r, durs, dir), nil
}

// newShardedDurable assembles the durable facade over its recovered or
// freshly created shards.
func newShardedDurable(r *shard.Router, durs []*DurableIndex, dir string) *ShardedIndex {
	shards := make([]*AdaptiveIndex, len(durs))
	for i, d := range durs {
		shards[i] = d.AdaptiveIndex
	}
	s := newShardedIndex(r, shards)
	s.dur, s.root = durs, dir
	return s
}

// closeAll closes every opened shard, keeping the first error; nil entries
// (shards that failed to open) are skipped.
func closeAll(durs []*DurableIndex) error {
	var first error
	for _, d := range durs {
		if d == nil {
			continue
		}
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OpenShardedDurable reopens a sharded store: the manifest is read and
// validated first, then every shard's durable directory recovers
// independently and in parallel — snapshot restore plus WAL-tail replay per
// shard (see OpenDurable), so recovery time scales with the largest shard,
// not the table. Acknowledged writes recover into the shard that owns them.
func OpenShardedDurable(dir string, dopts *DurableOptions) (*ShardedIndex, ShardedRecoveryReport, error) {
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
	durs := make([]*DurableIndex, n)
	reps := make([]RecoveryReport, n)
	err = eachShard(n, "recovering", func(i int) (err error) {
		durs[i], reps[i], err = OpenDurable(filepath.Join(dir, m.ShardDirs[i]), dopts)
		return err
	})
	if err != nil {
		closeAll(durs)
		return nil, rep, err
	}
	rep.Shards = reps
	for _, sr := range reps {
		rep.SnapshotRows += sr.SnapshotRows
		rep.ReplayedRows += sr.ReplayedRows
		rep.TruncatedTail = rep.TruncatedTail || sr.TruncatedTail
	}
	return newShardedDurable(r, durs, dir), rep, nil
}

// Checkpoint absorbs every shard's WAL into its snapshot (see
// DurableIndex.Checkpoint), running the shards in parallel; the manifest is
// immutable after create, so a sharded checkpoint is exactly the set of
// per-shard checkpoints. All shards are attempted even when one fails; the
// first error is returned. No-op (nil) on an in-memory ShardedIndex.
func (s *ShardedIndex) Checkpoint() error {
	if s.dur == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return eachShard(len(s.dur), "checkpointing", func(i int) error { return s.dur[i].Checkpoint() })
}

// Durable returns shard i's durable wrapper (nil when the index is
// in-memory), for checkpoint fault injection and per-shard inspection.
func (s *ShardedIndex) Durable(i int) *DurableIndex {
	if s.dur == nil {
		return nil
	}
	return s.dur[i]
}

// Root returns the store's root directory ("" when in-memory).
func (s *ShardedIndex) Root() string { return s.root }

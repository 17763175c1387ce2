package modeltest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	flood "flood"
)

// ErrUnsupported reports an operation a facade cannot perform; Generate
// respects Caps so a runner never sees it, but adapters return it rather
// than panic if driven by hand.
var ErrUnsupported = errors.New("modeltest: operation not supported by this facade")

// System is the face the harness drives. Each adapter wraps one public index
// facade; the harness never reaches into internals, so whatever it observes
// a real caller could observe too.
type System interface {
	// Insert appends a row.
	Insert(row []int64) error
	// Delete removes rows matching q, returning the affected count.
	Delete(q flood.Query) (int64, error)
	// DeleteRows removes rows by the Select ids in ids.
	DeleteRows(ids []int64) (int64, error)
	// Update rewrites rows matching q with set applied.
	Update(q flood.Query, set []flood.Assignment) (int64, error)
	// Select returns the matching rows' tuples and their Select ids.
	Select(q flood.Query) (tuples [][]int64, ids []int64)
	// Aggregate returns COUNT(*) and SUM(col 0) over rows matching q.
	Aggregate(q flood.Query) (count, sum int64)
	// LiveRows returns the visible row count.
	LiveRows() int
	// Maintain runs one facade lifecycle event (merge, relearn,
	// checkpoint, rebuild) selected by step.
	Maintain(step int) error
	// Crash abandons the handle mid-flight and recovers from disk.
	Crash() error
	// Close releases the facade.
	Close() error
}

// readRows drains a Select cursor into concrete tuples and ids.
func readRows(rows *flood.Rows, cols int) ([][]int64, []int64) {
	defer rows.Close()
	var tuples [][]int64
	var ids []int64
	for rows.Next() {
		t := make([]int64, cols)
		for c := range t {
			t[c] = rows.Int64(c)
		}
		tuples = append(tuples, t)
		ids = append(ids, rows.RowID())
	}
	SortTuples(tuples)
	return tuples, ids
}

// aggregate runs COUNT and SUM(col 0) through an Execute-shaped facade.
func aggregate(exec func(flood.Query, flood.Aggregator) flood.Stats, q flood.Query) (int64, int64) {
	cnt := flood.NewCount()
	exec(q, cnt)
	sum := flood.NewSum(0)
	exec(q, sum)
	return cnt.Result(), sum.Result()
}

// floodSystem adapts the immutable base facade: deletes and reads only,
// Maintain compacts by rebuilding into a fresh handle.
type floodSystem struct {
	f    *flood.Flood
	cols int
}

// NewFloodSystem wraps a plain Flood index.
func NewFloodSystem(f *flood.Flood) System {
	return &floodSystem{f: f, cols: f.Table().NumCols()}
}

func (s *floodSystem) Insert([]int64) error { return ErrUnsupported }

func (s *floodSystem) Delete(q flood.Query) (int64, error) { return s.f.Delete(q) }

func (s *floodSystem) DeleteRows(ids []int64) (int64, error) { return s.f.DeleteRows(ids) }

func (s *floodSystem) Update(flood.Query, []flood.Assignment) (int64, error) {
	return 0, ErrUnsupported
}

func (s *floodSystem) Select(q flood.Query) ([][]int64, []int64) {
	rows, _ := s.f.Select(q)
	return readRows(rows, s.cols)
}

func (s *floodSystem) Aggregate(q flood.Query) (int64, int64) {
	return aggregate(s.f.Execute, q)
}

func (s *floodSystem) LiveRows() int { return s.f.LiveRows() }

func (s *floodSystem) Maintain(int) error {
	fresh, err := s.f.Rebuild()
	if err != nil {
		return err
	}
	s.f = fresh
	return nil
}

func (s *floodSystem) Crash() error { return ErrUnsupported }

func (s *floodSystem) Close() error { return nil }

// store is the method set AdaptiveIndex, DurableIndex, and ShardedIndex
// share; one adapter serves all three.
type store interface {
	Insert(row []int64) error
	Delete(q flood.Query) (int64, error)
	DeleteRows(ids []int64) (int64, error)
	Update(q flood.Query, set []flood.Assignment) (int64, error)
	Select(q flood.Query, cols ...string) (*flood.Rows, flood.Stats)
	Execute(q flood.Query, agg flood.Aggregator) flood.Stats
	LiveRows() int
}

// storeSystem adapts a mutable facade. maintain runs one lifecycle event on
// the current handle; crash (nil when the facade has no disk state)
// abandons it mid-flight, recovers from disk, and installs the recovered
// handle; closer releases the current handle.
type storeSystem struct {
	store
	cols     int
	maintain func(step int) error
	crash    func() error
	closer   func() error
}

func (s *storeSystem) Select(q flood.Query) ([][]int64, []int64) {
	rows, _ := s.store.Select(q)
	return readRows(rows, s.cols)
}

func (s *storeSystem) Aggregate(q flood.Query) (int64, int64) {
	return aggregate(s.store.Execute, q)
}

func (s *storeSystem) Maintain(step int) error { return s.maintain(step) }

func (s *storeSystem) Crash() error {
	if s.crash == nil {
		return ErrUnsupported
	}
	return s.crash()
}

func (s *storeSystem) Close() error { return s.closer() }

// rebuild forces a merge (even steps) or a relearn (odd steps) on a and
// waits for the background swap, so the next op observes it.
func rebuild(a *flood.AdaptiveIndex, step int) {
	if step%2 == 0 {
		a.TriggerMerge()
	} else {
		a.TriggerRelearn()
	}
	a.Wait()
}

// NewAdaptiveSystem wraps an AdaptiveIndex; Maintain alternates forced
// merges and relearns.
func NewAdaptiveSystem(a *flood.AdaptiveIndex, cols int) System {
	return &storeSystem{
		store:    a,
		cols:     cols,
		maintain: func(step int) error { rebuild(a, step); return nil },
		closer:   func() error { a.Close(); return nil },
	}
}

// NewDurableSystem wraps a DurableIndex living in dir. Maintain rotates
// checkpoints with forced merges and relearns. Crash snapshots the
// directory at the kill instant (simulating the disk image a real crash
// leaves, including whatever the WAL has fsynced) and recovers from the
// copy with OpenDurable. newDir must return a fresh empty directory each
// call; Crash recovers into one so the abandoned handle can never touch the
// recovered state.
func NewDurableSystem(d *flood.DurableIndex, dir string, opts *flood.DurableOptions, cols int, newDir func() string) System {
	s := &storeSystem{store: d, cols: cols}
	s.maintain = func(step int) error {
		if step%3 == 0 {
			return d.Checkpoint()
		}
		rebuild(d.Adaptive(), step%3-1)
		return nil
	}
	s.crash = func() error {
		// Copy first: the image at this instant is what a kill -9 leaves.
		// Closing the abandoned handle afterwards only releases resources;
		// it can no longer influence the copy we recover from.
		dst := newDir()
		if err := copyDir(dir, dst); err != nil {
			return err
		}
		d.Close()
		re, _, err := flood.OpenDurable(dst, opts)
		if err != nil {
			return fmt.Errorf("modeltest: recovery failed: %w", err)
		}
		d, dir, s.store = re, dst, re
		return nil
	}
	s.closer = func() error { return d.Close() }
	return s
}

// copyDir copies the flat durable directory (snapshot + WAL segments).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies a sharded store root: the manifest plus one subdirectory
// per shard.
func copyTree(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dst, e.Name())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := copyDir(filepath.Join(src, e.Name()), sub); err != nil {
			return err
		}
	}
	return copyDir(src, dst)
}

// NewShardedSystem wraps a durable ShardedIndex living in dir. Maintain
// rotates a whole-store checkpoint with per-shard merges and relearns (the
// shard picked by the step ordinal, so every shard's lifecycle runs); Crash
// snapshots the entire root — manifest and every shard directory — at the
// kill instant and recovers the copy through OpenShardedDurable. newDir
// must return a fresh empty directory each call, as in NewDurableSystem.
func NewShardedSystem(sh *flood.ShardedIndex, dir string, opts *flood.DurableOptions, cols int, newDir func() string) System {
	s := &storeSystem{store: sh, cols: cols}
	s.maintain = func(step int) error {
		if step%3 == 0 {
			return sh.Checkpoint()
		}
		rebuild(sh.Shard((step/3)%sh.NumShards()), step%3-1)
		return nil
	}
	s.crash = func() error {
		dst := newDir()
		if err := copyTree(dir, dst); err != nil {
			return err
		}
		sh.Close()
		re, _, err := flood.OpenShardedDurable(dst, opts)
		if err != nil {
			return fmt.Errorf("modeltest: sharded recovery failed: %w", err)
		}
		sh, dir, s.store = re, dst, re
		return nil
	}
	s.closer = func() error { return sh.Close() }
	return s
}

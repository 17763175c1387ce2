package modeltest

import (
	"errors"
	"fmt"
	"os"

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

// storeSystem adapts a flood.Store — flat or sharded, in memory or living in
// dir ("" in memory); everything it does not spell out is the store's own
// method.
type storeSystem struct {
	flood.Store
	dir    string
	opts   *flood.DurableOptions
	cols   int
	newDir func() string
}

// NewStoreSystem wraps any flood.Store. Maintain rotates a whole-store
// checkpoint (a no-op in memory) with a forced merge and a forced relearn of
// one shard, picked by the step ordinal so every shard's lifecycle runs.
// When the store lives in dir, Crash copies the whole tree at the kill
// instant — the disk image a real crash leaves, including whatever the WAL
// has fsynced — and recovers the copy with flood.OpenStore under opts;
// newDir must return a fresh empty directory each call, so the abandoned
// handle can never touch the recovered state. A store with dir "" has no
// disk state and does not crash.
func NewStoreSystem(store flood.Store, dir string, opts *flood.DurableOptions, cols int, newDir func() string) System {
	return &storeSystem{Store: store, dir: dir, opts: opts, cols: cols, newDir: newDir}
}

func (s *storeSystem) Select(q flood.Query) ([][]int64, []int64) {
	rows, _ := s.Store.Select(q)
	return readRows(rows, s.cols)
}

func (s *storeSystem) Aggregate(q flood.Query) (int64, int64) {
	return aggregate(s.Store.Execute, q)
}

func (s *storeSystem) Maintain(step int) error {
	if step%3 == 0 {
		return s.Checkpoint()
	}
	// Wait for the background swap, so the next op observes it.
	a := s.Shard((step / 3) % s.NumShards())
	if step%3 == 1 {
		a.TriggerMerge()
	} else {
		a.TriggerRelearn()
	}
	a.Wait()
	return nil
}

func (s *storeSystem) Crash() error {
	if s.dir == "" {
		return ErrUnsupported
	}
	// Copy first: the image at this instant is what a kill -9 leaves.
	// Closing the abandoned handle afterwards only releases resources; it
	// can no longer influence the copy we recover from.
	dst := s.newDir()
	if err := os.CopyFS(dst, os.DirFS(s.dir)); err != nil {
		return err
	}
	s.Store.Close()
	re, _, err := flood.OpenStore(dst, s.opts)
	if err != nil {
		return fmt.Errorf("modeltest: recovery failed: %w", err)
	}
	s.Store, s.dir = re, dst
	return nil
}

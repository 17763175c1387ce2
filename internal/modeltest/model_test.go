package modeltest

import (
	"fmt"
	"math/rand"
	"testing"

	flood "flood"
)

const (
	baseRows = 256
	nCols    = 3
	domain   = 256
	nOps     = 10_000
)

// baseData builds the deterministic seed table shared by the oracle and
// every system: column-major for NewTable, row-major for the oracle.
func baseData(seed int64) ([][]int64, [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, nCols)
	for c := range cols {
		cols[c] = make([]int64, baseRows)
	}
	rows := make([][]int64, baseRows)
	for i := 0; i < baseRows; i++ {
		rows[i] = make([]int64, nCols)
		for c := 0; c < nCols; c++ {
			v := rng.Int63n(domain)
			rows[i][c] = v
			cols[c][i] = v
		}
	}
	return cols, rows
}

func buildBase(t testing.TB, seed int64) (*flood.Flood, [][]int64) {
	t.Helper()
	cols, rows := baseData(seed)
	tbl, err := flood.NewTable([]string{"a", "b", "c"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	f, err := flood.BuildWithLayout(tbl, flood.Layout{
		GridDims: []int{0, 1}, GridCols: []int{4, 4}, SortDim: 2, Flatten: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, rows
}

// runModel generates a seeded sequence, replays it through mk's runner, and
// on divergence shrinks to the shortest failing prefix before failing the
// test with a reproducible (seed, prefix) report.
func runModel(t *testing.T, seed int64, caps Caps, mk func() (*Runner, error)) {
	t.Helper()
	cfg := GenConfig{Cols: nCols, Ops: nOps, Domain: domain, Caps: caps}
	if testing.Short() {
		cfg.Ops = nOps / 10
	}
	ops := Generate(seed, cfg)
	r, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	defer r.System().Close()
	at, rerr := r.Run(ops)
	if at < 0 {
		return
	}
	n, serr := ShrinkPrefix(mk, ops)
	if n == 0 {
		t.Fatalf("seed %d: failed at op %d: %v (did NOT reproduce on replay: %v)", seed, at, rerr, serr)
	}
	t.Fatalf("seed %d: failed at op %d: %v (shortest failing prefix: %d ops, reproducing as: %v)",
		seed, at, rerr, n, serr)
}

// TestModelFlood checks the immutable base facade: tombstone deletes by
// predicate and by id, masked reads and aggregates, and compaction via
// Rebuild, against the oracle for a 10k-op seeded sequence.
func TestModelFlood(t *testing.T) {
	const seed = 1
	runModel(t, seed, Caps{Maintain: true}, func() (*Runner, error) {
		f, rows := buildBase(t, seed)
		return NewRunner(NewFloodSystem(f), NewOracle(rows), nCols), nil
	})
}

// quiesced disables the autonomous rebuild triggers (growth merges, drift
// relearns). The oracle harness is single-threaded: it resolves physical ids
// with Select and immediately deletes them, and physical ids are only stable
// within an epoch — an autonomous background swap landing between the two
// calls silently invalidates them (see AdaptiveIndex.DeleteRows). Forced
// OpMaintain rebuilds still exercise every merge/relearn/swap path, but at
// deterministic points between ops.
func quiesced() *flood.AdaptiveConfig {
	return &flood.AdaptiveConfig{MergeFraction: -1, DriftFactor: 1e12}
}

// TestModelAdaptive drives AdaptiveIndex: the side log, merges and relearns
// forced by OpMaintain, with the deferred-delete protocol carrying deletions
// across epoch swaps.
func TestModelAdaptive(t *testing.T) {
	const seed = 3
	runModel(t, seed, Caps{Insert: true, Maintain: true}, func() (*Runner, error) {
		f, rows := buildBase(t, seed)
		sys := NewStoreSystem(flood.NewAdaptiveIndex(f, quiesced()), "", nil, nCols, nil)
		return NewRunner(sys, NewOracle(rows), nCols), nil
	})
}

// TestModelDurable is the end-to-end property: every acknowledged mutation
// survives kill -9. The sequence interleaves mutations with checkpoints,
// forced rebuilds, and crash-recover cycles (the directory is snapshotted at
// the kill instant and recovered with OpenDurable); the oracle carries
// across crashes unchanged, so any lost or resurrected row diverges.
func TestModelDurable(t *testing.T) {
	const seed = 4
	runModel(t, seed, Caps{Insert: true, Maintain: true, Crash: true}, func() (*Runner, error) {
		f, rows := buildBase(t, seed)
		opts := &flood.DurableOptions{Sync: flood.SyncAlways, Adaptive: quiesced()}
		dir := t.TempDir()
		d, err := flood.CreateDurable(dir, f, opts)
		if err != nil {
			return nil, err
		}
		sys := NewStoreSystem(d, dir, opts, nCols, func() string { return t.TempDir() })
		return NewRunner(sys, NewOracle(rows), nCols), nil
	})
}

// TestModelSharded drives the durable sharded engine end to end: inserts,
// deletes, and updates routed by split point (the 64/128/192 splits sit
// inside the generator's value domain, so boundary values and cross-shard
// moves occur naturally), per-shard merges and relearns plus whole-store
// checkpoints forced by OpMaintain, and kill -9 crash-recovery through the
// manifest — the root is snapshotted at the kill instant and every shard
// recovers from its own WAL.
func TestModelSharded(t *testing.T) {
	const seed = 6
	runModel(t, seed, Caps{Insert: true, Maintain: true, Crash: true}, func() (*Runner, error) {
		cols, rows := baseData(seed)
		tbl, err := flood.NewTable([]string{"a", "b", "c"}, cols)
		if err != nil {
			return nil, err
		}
		train := []flood.Query{
			flood.NewQuery(nCols).WithRange(0, 0, 100),
			flood.NewQuery(nCols).WithRange(1, 50, 150),
			flood.NewQuery(nCols).WithRange(0, 100, 200).WithRange(2, 0, 128),
		}
		opts := &flood.DurableOptions{Sync: flood.SyncAlways, Adaptive: quiesced()}
		dir := t.TempDir()
		s, err := flood.CreateShardedDurable(dir, tbl, train, &flood.ShardedOptions{
			Dim:    0,
			Splits: []int64{64, 128, 192},
			Build:  &flood.Options{CalibrationLayouts: 2, GDSteps: 3, Seed: seed},
		}, opts)
		if err != nil {
			return nil, err
		}
		sys := NewStoreSystem(s, dir, opts, nCols, func() string { return t.TempDir() })
		return NewRunner(sys, NewOracle(rows), nCols), nil
	})
}

// lyingSystem wraps a System and silently drops every delete whose op
// ordinal is past breakAt — an artificial bug the harness must catch.
type lyingSystem struct {
	System
	n       int
	breakAt int
}

func (s *lyingSystem) Delete(q flood.Query) (int64, error) {
	s.n++
	if s.n > s.breakAt {
		return 0, nil // acknowledged nothing, deleted nothing
	}
	return s.System.Delete(q)
}

// TestModelCatchesInjectedBug proves the harness has teeth: a facade that
// starts dropping deletes partway through is detected at (or immediately
// after) the first dropped delete, and ShrinkPrefix converges to a prefix no
// longer than the full sequence and still failing.
func TestModelCatchesInjectedBug(t *testing.T) {
	const seed = 5
	cfg := GenConfig{Cols: nCols, Ops: 2000, Domain: domain, Caps: Caps{Insert: true, Maintain: true}}
	ops := Generate(seed, cfg)
	mk := func() (*Runner, error) {
		f, rows := buildBase(t, seed)
		sys := &lyingSystem{System: NewStoreSystem(flood.NewAdaptiveIndex(f, quiesced()), "", nil, nCols, nil), breakAt: 3}
		return NewRunner(sys, NewOracle(rows), nCols), nil
	}
	r, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	defer r.System().Close()
	at, rerr := r.Run(ops)
	if at < 0 {
		t.Fatal("harness did not detect an injected delete-dropping bug")
	}
	n, serr := ShrinkPrefix(mk, ops)
	if n == 0 {
		t.Fatalf("injected bug did not reproduce under shrink: %v", serr)
	}
	if n > at+1 {
		t.Fatalf("shrink found prefix %d, want 1..%d (failure was at op %d: %v)", n, at+1, at, rerr)
	}
}

// TestModelOracleBasics pins the oracle itself — the model must be right
// before it can judge the system.
func TestModelOracleBasics(t *testing.T) {
	o := NewOracle([][]int64{{1, 10}, {2, 20}, {3, 30}})
	q := flood.NewQuery(2).WithRange(0, 2, 3)
	if n := o.Delete(q); n != 2 {
		t.Fatalf("Delete matched %d rows, want 2", n)
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d after delete, want 1", o.Len())
	}
	o.Insert([]int64{5, 50})
	if n := o.Update(flood.NewQuery(2).WithRange(1, 50, 50), []flood.Assignment{{Col: 0, Value: 9}}); n != 1 {
		t.Fatalf("Update matched %d rows, want 1", n)
	}
	got := o.Match(flood.NewQuery(2))
	want := [][]int64{{1, 10}, {9, 50}}
	if !EqualTuples(got, want) {
		t.Fatalf("Match = %v, want %v", got, want)
	}
	cnt, sum := o.Aggregate(flood.NewQuery(2))
	if cnt != 2 || sum != 10 {
		t.Fatalf("Aggregate = (%d, %d), want (2, 10)", cnt, sum)
	}
}

// TestModelGenerateDeterministic pins that equal seeds yield equal
// sequences — the property every failure report relies on.
func TestModelGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Cols: nCols, Ops: 500, Domain: domain, Caps: Caps{Insert: true, Maintain: true, Crash: true}}
	a, b := Generate(42, cfg), Generate(42, cfg)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("Generate is not deterministic in its seed")
	}
	c := Generate(43, cfg)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("distinct seeds produced identical sequences")
	}
}

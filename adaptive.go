package flood

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
	"flood/internal/wal"
	"flood/internal/wire"
	"flood/internal/workload"
)

// AdaptiveConfig tunes an AdaptiveIndex. The zero value (or nil) picks
// defaults suitable for analytical serving; every threshold can be tightened
// for tests or latency-sensitive deployments.
type AdaptiveConfig struct {
	// DriftFactor triggers a relearn when the average query time over the
	// last 64 queries exceeds this multiple of the reference cost (default
	// 3), once at least 32 queries have been sampled.
	DriftFactor float64
	// MergeFraction schedules automatic delta merges: once the pending
	// insert log exceeds this fraction of the base row count, a background
	// merge folds it into the base layout. 0 picks the default (0.125);
	// negative disables auto-merging.
	MergeFraction float64
	// Build supplies the options used when relearning a layout. When its
	// CostModel is nil, the current index's model is reused, so the
	// expensive calibration step never runs on the serving path.
	Build *Options
	// Seed fixes the reservoir's sampling sequence (and, combined with
	// Build.Seed, makes relearns reproducible).
	Seed int64
}

func (c *AdaptiveConfig) withDefaults() AdaptiveConfig {
	out := AdaptiveConfig{}
	if c != nil {
		out = *c
	}
	if out.DriftFactor <= 1 {
		out.DriftFactor = 3
	}
	if out.MergeFraction == 0 {
		out.MergeFraction = 0.125
	}
	return out
}

// relearnSample is the size of the reservoir of live queries a relearn
// trains on.
const relearnSample = 512

// AdaptiveStats is a point-in-time view of an AdaptiveIndex's lifecycle.
type AdaptiveStats struct {
	// Queries is the total number of queries served (batch queries count
	// individually).
	Queries int64
	// BaseRows and PendingRows split the stored data into the learned base
	// index and the unmerged insert log.
	BaseRows    int
	PendingRows int
	// SampledQueries is the current size of the workload reservoir.
	SampledQueries int
	// Relearns and Merges count completed background rebuilds by kind.
	Relearns int64
	Merges   int64
	// Rebuilding reports whether a background rebuild is in flight.
	Rebuilding bool
	// LastSwap is the wall time of the most recent index swap (zero before
	// the first).
	LastSwap time.Time
	// LastError is the most recent background rebuild failure, if any.
	LastError error
	// Reference and WindowAverage expose the drift monitor's state in
	// nanoseconds per query.
	Reference     float64
	WindowAverage float64
}

// rebuildKind distinguishes the two background rebuild flavors: a relearn
// searches for a new layout against the sampled workload, a merge keeps the
// layout and folds the insert log into the base.
type rebuildKind int

const (
	rebuildRelearn rebuildKind = iota
	rebuildMerge
)

// adaptiveEpoch is one immutable serving generation: a built index, the
// append-only insert log layered on top of it, and the drift monitor born
// with it, plus the index whose lifecycle its queries feed. Swapping generations is a single atomic pointer store, so readers
// never take a lock to find the current index.
type adaptiveEpoch struct {
	a     *AdaptiveIndex
	flood *Flood
	log   *sideLog
	mon   *monitor
}

// AdaptiveIndex is a concurrent serving facade that closes the relearn loop
// of §8 ("Shifting workloads"): it serves queries and inserts continuously,
// samples the live workload into a reservoir, watches for drift with a
// sliding-window monitor, and — when the layout has gone stale or the insert
// log has grown past its merge threshold — rebuilds in the background and
// publishes the fresh index with an atomic pointer swap. Queries are never blocked: the
// old generation keeps serving until the instant the new one is visible.
//
// Concurrency contract: the query methods, Insert, Delete, Update, Stats,
// and the trigger methods may all be called from any number of goroutines.
// The hot read path takes no locks — it loads the current generation with
// one atomic pointer read and scans the insert log through an atomically
// published row count. At most one background rebuild runs at a time; concurrent triggers
// (drift signals, merge thresholds, forced calls) coalesce into it.
//
//	idx, _ := flood.Build(tbl, train, nil)
//	a := flood.NewAdaptiveIndex(idx, nil)
//	defer a.Close()
//	// any number of goroutines:
//	stats := a.Execute(q, flood.NewCount())
//	_ = a.Insert(row)
type AdaptiveIndex struct {
	mutableSurface // schema inherited from the wrapped index at construction
	cfg            AdaptiveConfig
	epoch          atomic.Pointer[adaptiveEpoch]
	sample         *workload.Reservoir

	// mu serializes writers: apply carries every mutation out under it, and
	// a finishing rebuild holds it across the swap so the insert-log tail it
	// carries forward is exact. Readers never touch it.
	mu sync.Mutex

	// walLog, when set, receives every mutation's records before they are
	// published (see apply); guarded by mu (a durable checkpoint swaps it
	// while quiescing writers).
	walLog *wal.Log

	// Deferred deletions, guarded by mu. A background rebuild compacts a
	// captured image of base+log, and the swap carries over the log tail
	// appended since; a delete landing after the capture affects rows the
	// fresh epoch holds again unless re-applied. While deferring is set,
	// every delete also records its victims' value tuples here, one entry
	// per delete record; the swap re-applies them to the fresh epoch by
	// value before publishing it, so no reader ever observes a deleted row
	// coming back.
	deferring bool
	deferred  []mutation

	// rebuildMu guards the single-rebuild-in-flight state. It is taken
	// only when a trigger fires or a waiter blocks, never on the query
	// hot path.
	rebuildMu     sync.Mutex
	rebuildActive bool
	rebuildDone   chan struct{}
	closed        bool
	lastErr       error

	queries  atomic.Int64
	relearns atomic.Int64
	merges   atomic.Int64
	lastSwap atomic.Int64 // UnixNano; 0 = never swapped
	epochGen atomic.Int64 // completed swaps; strictly monotonic

	// testHookBuilt, when set, runs after a background build finishes but
	// before the swap — tests use it to hold the rebuilding state open.
	testHookBuilt func()

	// dur is the rest of a durable index's state (walLog above is its active
	// segment): nil in memory, set once by CreateDurable or OpenDurable.
	dur *durability
}

// NewAdaptiveIndex wraps a built index in the adaptive serving facade.
// The index takes ownership of serving: run queries and inserts through it
// rather than through base directly. Call Close to stop background work.
func NewAdaptiveIndex(base *Flood, cfg *AdaptiveConfig) *AdaptiveIndex {
	c := cfg.withDefaults()
	a := &AdaptiveIndex{
		cfg:    c,
		sample: workload.NewReservoir(relearnSample, c.Seed),
	}
	a.surface = newSurface(a, base.schema, base.Table().Names())
	a.epoch.Store(a.newEpoch(base))
	return a
}

func (a *AdaptiveIndex) newEpoch(f *Flood) *adaptiveEpoch {
	return &adaptiveEpoch{
		a:     a,
		flood: f,
		log:   newSideLog(f.Table().Names()),
		mon:   newMonitor(f.PredictedCost(), a.cfg.DriftFactor),
	}
}

// pin implements engine: the current generation. Readers never take a lock
// to find it, and never block on rebuilds.
func (a *AdaptiveIndex) pin() generation { return a.epoch.Load() }

// scan runs q against the generation — base index, then insert log — with
// no lifecycle bookkeeping. Both scans share the control's cancellation
// signal and limit budget (base rows fill the budget first), and a stop
// during the base scan skips the log entirely. A row collector gets the base
// table pinned first, so base rows occupy ids [0, base) whichever delivers
// first, and log row r gets id base+r.
func (ep *adaptiveEpoch) scan(ctl *query.Control, q Query, agg Aggregator, workers int) Stats {
	var logStart int64
	if rc, ok := agg.(*query.RowCollector); ok {
		logStart = rc.PinSource(ep.flood.Table()) + int64(ep.flood.Table().NumRows())
	}
	st := ep.flood.run(ctl, q, agg, workers)
	if n := ep.log.rows(); n > 0 && !ctl.Stopped() {
		st.Add(ep.log.scan(ctl, q, n, agg, workers, logStart))
	}
	return st
}

// run implements generation: scan, then the bookkeeping tail. A completed
// query is sampled and feeds the drift monitor; a limit-truncated one is
// real workload signal for the sample, but its truncated timing would drag
// the window average below real full-query cost; a canceled one reaches
// neither. The outcome is read after a last cancellation poll (Finish), the
// one the caller's error comes from: a cancel that landed after the scan's
// last poll — a morsel engine whose morsels were all claimed before it — is
// a canceled query here too.
func (ep *adaptiveEpoch) run(ctl *query.Control, q Query, agg Aggregator, workers int) Stats {
	st := ep.scan(ctl, q, agg, workers)
	switch ctl.Finish() {
	case nil:
		ep.a.observe(ep, q, st)
	case ErrLimitReached:
		ep.a.queries.Add(1)
		ep.a.sample.Add(q)
	}
	return st
}

// runPieces implements generation: the pieces bypass the drift monitor, and
// unless canceled the disjunction counts as one served query whose
// rectangles feed the workload sample.
func (ep *adaptiveEpoch) runPieces(ctl *query.Control, pieces, shapes []Query, agg Aggregator) Stats {
	var total Stats
	for _, piece := range pieces {
		if ctl.Stopped() {
			break
		}
		total.Add(ep.scan(ctl, piece, agg, 0))
	}
	if ctl.Finish() != ErrCanceled {
		ep.a.queries.Add(1)
		for _, q := range shapes {
			ep.a.sample.Add(q)
		}
	}
	return total
}

// observe is the bookkeeping tail of every query: sample it, feed the drift
// monitor, and kick off a relearn when the monitor signals.
func (a *AdaptiveIndex) observe(ep *adaptiveEpoch, q Query, st Stats) {
	a.queries.Add(1)
	a.sample.Add(q)
	if ep.mon.record(st) {
		a.tryRebuild(rebuildRelearn, minRelearnQueries)
	}
}

// apply implements engine for the generation-owning facade — an
// AdaptiveIndex, in memory or durable, alone or as a shard of a ShardedIndex.
// It is the only writer of a live generation: one writer-lock hold in which
// the current epoch carries m out (adaptiveEpoch.apply: resolve, validate,
// log, defer, tombstone, append), then, outside the lock, the wait for the
// log to be as durable as its sync policy promises — so appends stay cheap
// and concurrent writers group-commit — and the merge trigger.
func (a *AdaptiveIndex) apply(m mutation) (int64, error) {
	a.mu.Lock()
	ep, w := a.epoch.Load(), a.walLog
	if w == nil && a.dur != nil {
		a.mu.Unlock()
		return 0, errClosed
	}
	before := ep.log.rows()
	n, target, err := ep.apply(m, w)
	pending := ep.log.rows()
	a.mu.Unlock()
	if err != nil {
		return n, err
	}
	if target > 0 {
		if err := w.WaitDurable(target); err != nil {
			return n, fmt.Errorf("flood: wal sync: %w", err)
		}
	}
	base := ep.flood.Table().NumRows()
	if pending > before && a.cfg.MergeFraction > 0 && float64(pending) >= a.cfg.MergeFraction*float64(base) {
		a.tryRebuild(rebuildMerge, 0)
	}
	return n, nil
}

// apply carries m out on this generation, logging each record to w first
// when w is non-nil, and returns the rows affected plus the log position to
// wait on (0 when nothing was logged). The caller serializes it with every
// other writer of the epoch: the facade's writer lock for a live write, or
// sole ownership of an epoch no reader can reach yet — WAL replay in
// OpenDurable and the swap in rebuild, which pass a nil log, so a logged or
// deferred record re-enters here without being logged or deferred again.
//
// The order is the contract. The whole mutation is validated before the
// first record is logged, so a malformed one is rejected rather than
// replayed forever, and is never half-applied. Every record is logged before
// its effect is published — the delete record, then the tombstones; each
// insert record, then its row — so memory never holds what the log does not
// and a failed append leaves both at the same prefix. A deletion that lands
// while a rebuild is in flight is also kept by value for the swap.
func (ep *adaptiveEpoch) apply(m mutation, w *wal.Log) (n, target int64, err error) {
	a := ep.a
	cols := ep.flood.Table().NumCols()
	for _, as := range m.set {
		if as.Col < 0 || as.Col >= cols {
			return 0, 0, fmt.Errorf("flood: update assigns column %d, table has %d", as.Col, cols)
		}
	}
	for _, row := range m.rows {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("flood: row has %d values, table has %d dimensions", len(row), cols)
		}
	}

	logN := ep.log.rows()
	baseRows, logRows := ep.victims(m, logN)
	var rewritten [][]int64
	if len(baseRows)+len(logRows) > 0 {
		var tuples [][]int64 // the victims' values, base rows then log rows
		if w != nil || a.deferring || m.rewrite {
			tuples = ep.tuples(baseRows, logRows)
		}
		if w != nil {
			if target, err = w.AppendAsync(mutation{tuples: tuples}.encodeWAL()); err != nil {
				return 0, 0, fmt.Errorf("flood: wal append: %w", err)
			}
		}
		if a.deferring {
			// Each victim was live at the in-flight rebuild's capture or
			// appended since, so the fresh epoch holds it again; the swap
			// deletes it there by value (see rebuild).
			a.deferred = append(a.deferred, mutation{tuples: tuples})
		}
		n = int64(ep.flood.idx.DeleteRows(baseRows)) + int64(ep.log.deleteRows(logRows, logN))
		if m.rewrite {
			rewritten = make([][]int64, len(tuples))
			for i, tp := range tuples {
				row := append([]int64(nil), tp...)
				for _, as := range m.set {
					row[as.Col] = as.Value
				}
				rewritten[i] = row
			}
			if m.moved != nil {
				*m.moved = append(*m.moved, rewritten...)
				rewritten = nil
			}
		}
	}

	for _, row := range rewritten {
		if target, err = ep.add(row, w, target); err != nil {
			return n, target, err
		}
	}
	for _, row := range m.rows {
		if target, err = ep.add(row, w, target); err != nil {
			return n, target, err
		}
		n++
	}
	return n, target, nil
}

// add appends one row to the insert log, logging it to w first when w is
// non-nil, and returns the log position to wait on (target when w is nil).
func (ep *adaptiveEpoch) add(row []int64, w *wal.Log, target int64) (int64, error) {
	if w != nil {
		at, err := w.AppendAsync(mutation{rows: [][]int64{row}}.encodeWAL())
		if err != nil {
			return target, fmt.Errorf("flood: wal append: %w", err)
		}
		target = at
	}
	ep.log.append(row)
	return target, nil
}

// victims resolves the rows m names to live base rows and live log rows
// among the first logN, free of repeats. The caller holds the epoch against
// writers, so both sets stay live until it tombstones them. Both lists are
// ascending.
func (ep *adaptiveEpoch) victims(m mutation, logN int64) (baseRows, logRows []int) {
	switch {
	case m.where != nil:
		return ep.flood.idx.CollectWhere(*m.where), ep.log.matchRows(*m.where, logN)
	case len(m.tuples) > 0:
		return ep.byValue(m.tuples, logN)
	case len(m.ids) == 0:
		return nil, nil
	}
	baseN := int64(ep.flood.Table().NumRows())
	bt := ep.flood.idx.Tombstones()
	lt := ep.log.tomb.Load()
	seen := make(map[int64]struct{}, len(m.ids))
	for _, id := range m.ids {
		if _, dup := seen[id]; dup || id < 0 || id >= baseN+logN {
			continue
		}
		seen[id] = struct{}{}
		if id < baseN {
			if !bt.Has(int(id)) {
				baseRows = append(baseRows, int(id))
			}
		} else if !lt.Has(int(id - baseN)) {
			logRows = append(logRows, int(id-baseN))
		}
	}
	return baseRows, logRows
}

// byValue is victims for value tuples. The box that bounds them — for one
// distinct tuple, a point query on every dimension — goes through the same
// two calls as a where, and each row in it is looked up among the tuples: k
// copies of a tuple name its first k live matches in physical order, base
// rows before log rows, and a tuple with no live match left names nothing.
// A record a predicate deleted costs about what the predicate did, and any
// record at most one pass over base and log — one box, not a query per
// tuple, because a bulk record names tens of thousands.
func (ep *adaptiveEpoch) byValue(tuples [][]int64, logN int64) (baseRows, logRows []int) {
	// keys holds the distinct tuples in order, need how many rows each still
	// names. seen has the bit of each one's hash set, a sixteenth of its bits
	// or fewer, so most rows in the box that match none fail without a search.
	keys := slices.Clone(tuples)
	slices.SortFunc(keys, slices.Compare)
	need := make([]int, 0, len(keys))
	lg := bits.Len(uint(len(keys))) + 4
	seen := make([]uint64, 1+1<<lg/64)
	hash := func(row []int64) (h uint64) {
		for _, v := range row {
			h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		}
		return h >> (64 - lg)
	}
	box := Query{Ranges: make([]Range, len(keys[0]))}
	for c, v := range keys[0] {
		box.Ranges[c] = Range{Min: v, Max: v, Present: true}
	}
	for _, tp := range keys {
		if n := len(need); n > 0 && slices.Equal(keys[n-1], tp) {
			need[n-1]++
			continue
		}
		keys[len(need)] = tp
		need = append(need, 1)
		h := hash(tp)
		seen[h/64] |= 1 << (h % 64)
		for c, v := range tp {
			box.Ranges[c].Min, box.Ranges[c].Max = min(box.Ranges[c].Min, v), max(box.Ranges[c].Max, v)
		}
	}
	keys = keys[:len(need)]

	row := make([]int64, len(box.Ranges))
	take := func(rows []int, get func(c, r int) int64) (out []int) {
		for _, r := range rows {
			for c := range row {
				row[c] = get(c, r)
			}
			if h := hash(row); seen[h/64]&(1<<(h%64)) == 0 {
				continue
			}
			if i, ok := slices.BinarySearchFunc(keys, row, slices.Compare); ok && need[i] > 0 {
				need[i]--
				out = append(out, r)
			}
		}
		return out
	}
	return take(ep.flood.idx.CollectWhere(box), ep.flood.Table().Get),
		take(ep.log.matchRows(box, logN), ep.log.get)
}

// tuples materializes the values of live base rows and log rows, in that
// order.
func (ep *adaptiveEpoch) tuples(baseRows, logRows []int) [][]int64 {
	t := ep.flood.Table()
	out := make([][]int64, 0, len(baseRows)+len(logRows))
	for _, r := range baseRows {
		out = append(out, rowValues(t.Get, t.NumCols(), r))
	}
	for _, r := range logRows {
		out = append(out, rowValues(ep.log.get, t.NumCols(), r))
	}
	return out
}

// TriggerRelearn forces a background relearn as if drift had been detected,
// as long as at least one query has been sampled to train on. It reports
// whether a rebuild was started; false means one was already in flight (the
// trigger coalesces), the sample is empty, or the index is closed.
func (a *AdaptiveIndex) TriggerRelearn() bool { return a.tryRebuild(rebuildRelearn, 1) }

// TriggerMerge forces a background merge of the insert log into the base
// layout. It reports whether a rebuild was started; false means nothing is
// pending, one was already in flight, or the index is closed.
func (a *AdaptiveIndex) TriggerMerge() bool {
	if a.epoch.Load().log.rows() == 0 {
		return false
	}
	return a.tryRebuild(rebuildMerge, 0)
}

// tryRebuild starts a background rebuild unless one is already running (the
// backpressure rule: at most one in flight, extra triggers coalesce). For
// relearns, minSamples gates on the reservoir so there is always a workload
// to train on.
func (a *AdaptiveIndex) tryRebuild(kind rebuildKind, minSamples int) bool {
	if kind == rebuildRelearn && a.sample.Len() < max(minSamples, 1) {
		return false
	}
	a.rebuildMu.Lock()
	if a.closed || a.rebuildActive {
		a.rebuildMu.Unlock()
		return false
	}
	a.rebuildActive = true
	done := make(chan struct{})
	a.rebuildDone = done
	a.rebuildMu.Unlock()
	go a.rebuild(kind, done)
	return true
}

// rebuild runs in the background: snapshot base+delta and the sampled
// workload, build a fresh index (relearned layout or same-layout merge), and
// swap it in. Serving continues on the old generation throughout; the swap
// itself is one atomic store under the writer lock.
func (a *AdaptiveIndex) rebuild(kind rebuildKind, done chan struct{}) {
	var err error
	defer func() {
		a.rebuildMu.Lock()
		a.rebuildActive = false
		a.lastErr = err
		a.rebuildMu.Unlock()
		close(done)
	}()

	// Snapshot: rows below the published count are immutable, so the
	// frozen prefix of the log plus the (immutable) base table is a
	// consistent image of the data without stopping writers. The tombstone
	// sets are captured under the writer lock together with the frozen
	// count — and deferring is raised in the same critical section — so
	// every deletion is either compacted by this build or deferred for
	// re-application at the swap, never both.
	a.mu.Lock()
	ep := a.epoch.Load()
	frozen := ep.log.rows()
	baseTomb := ep.flood.idx.Tombstones()
	logTomb := ep.log.tomb.Load()
	a.deferring = true
	a.mu.Unlock()

	swapped := false
	defer func() {
		if !swapped {
			a.mu.Lock()
			a.deferring = false
			a.deferred = nil
			a.mu.Unlock()
		}
	}()

	// Outside the writer lock: rows below frozen never change.
	extra := ep.log.decode(0, frozen)
	var fresh *Flood
	switch kind {
	case rebuildRelearn:
		train := a.sample.Snapshot()
		if len(train) == 0 {
			// The trigger raced with a finishing relearn's sample reset;
			// there is no workload to train on, so this cycle is a no-op
			// rather than an error — the next drift signal retries.
			return
		}
		var merged *Table
		merged, err = core.MergeRowsLive(ep.flood.idx.Table(), baseTomb, extra, logTomb)
		if err == nil {
			opts := a.relearnOptions(ep)
			fresh, err = Build(merged, train, &opts)
		}
	case rebuildMerge:
		var idx *core.Flood
		idx, err = ep.flood.idx.RebuildCompact(extra, baseTomb, logTomb)
		if err == nil {
			// The optimizer's predicted cost described the pre-merge table;
			// zero it so the new epoch's monitor rebases its reference from
			// the first observed window instead of flagging honest data
			// growth as workload drift.
			res := ep.flood.result
			res.PredictedCost = 0
			fresh = newFlood(idx, res, ep.flood.model, ep.flood.schema)
		}
	}
	if a.testHookBuilt != nil {
		a.testHookBuilt()
	}
	if err != nil {
		return
	}

	// Swap: under the writer lock the log cannot grow, so the rows
	// inserted while we were building are exactly [frozen, total). They
	// are decoded and re-sealed into the new generation's log, work in
	// proportion to the writes the build overlapped, for which writers
	// stall. In-flight readers of the old generation stay correct — their
	// base+log image is immutable.
	a.mu.Lock()
	cur := a.epoch.Load()
	next := a.newEpoch(fresh)
	next.log.seed(cur.log.decode(frozen, cur.log.rows()))
	// The fresh epoch now holds every row live at the capture plus every row
	// appended since — a superset, as a multiset, of what is live — and the
	// difference is exactly the deferred deletions. They re-enter by value,
	// record by record as WAL replay would, through its own apply, unlogged
	// (their records are already in the log) and with deferring lowered
	// first, before the epoch pointer is stored, so no reader ever observes
	// a deleted row transiently resurrected. One record's tuples bound a
	// small box; the whole list's would bound most of the table.
	deferred := a.deferred
	a.deferred, a.deferring = nil, false
	for _, m := range deferred {
		next.apply(m, nil)
	}
	swapped = true
	a.epoch.Store(next)
	a.epochGen.Add(1)
	a.mu.Unlock()

	a.lastSwap.Store(time.Now().UnixNano())
	if kind == rebuildRelearn {
		a.relearns.Add(1)
		// The new layout answers the sampled workload; start sampling
		// the next era fresh so a future relearn sees current queries.
		a.sample.Reset()
	} else {
		a.merges.Add(1)
	}
}

// relearnOptions resolves the build options for a relearn, reusing the
// serving index's calibrated cost model unless the config supplies one.
func (a *AdaptiveIndex) relearnOptions(ep *adaptiveEpoch) Options {
	opts := a.cfg.Build.orDefault()
	if opts.CostModel == nil {
		opts.CostModel = ep.flood.Model()
	}
	if opts.Schema == nil {
		opts.Schema = ep.flood.schema
	}
	return opts
}

// Wait blocks until no background rebuild is in flight. Intended for tests
// and orderly shutdown; serving code never needs it.
func (a *AdaptiveIndex) Wait() {
	for {
		a.rebuildMu.Lock()
		if !a.rebuildActive {
			a.rebuildMu.Unlock()
			return
		}
		ch := a.rebuildDone
		a.rebuildMu.Unlock()
		<-ch
	}
}

// Close stops accepting rebuild triggers, waits for any in-flight rebuild to
// finish and, on a durable index, syncs and closes the active WAL segment (it
// checkpoints nothing; the directory reopens with OpenDurable). Queries
// remain valid after Close; they just stop adapting. So do writes in
// memory, but a durable index refuses every write and Checkpoint after
// Close with an error, since it could no longer log them. A second Close is
// a no-op.
func (a *AdaptiveIndex) Close() error {
	a.rebuildMu.Lock()
	a.closed = true
	a.rebuildMu.Unlock()
	a.Wait()
	if a.dur == nil {
		return nil
	}
	// Under the checkpoint lock, so a Checkpoint either finishes first or
	// finds the log gone.
	a.dur.ckptMu.Lock()
	defer a.dur.ckptMu.Unlock()
	a.mu.Lock()
	l := a.walLog
	a.walLog = nil
	a.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}

// Stats returns a consistent snapshot of the adaptive lifecycle.
func (a *AdaptiveIndex) Stats() AdaptiveStats {
	ep := a.epoch.Load()
	a.rebuildMu.Lock()
	rebuilding := a.rebuildActive
	lastErr := a.lastErr
	a.rebuildMu.Unlock()
	st := AdaptiveStats{
		Queries:        a.queries.Load(),
		BaseRows:       ep.flood.Table().NumRows(),
		PendingRows:    int(ep.log.rows()),
		SampledQueries: a.sample.Len(),
		Relearns:       a.relearns.Load(),
		Merges:         a.merges.Load(),
		Rebuilding:     rebuilding,
		LastError:      lastErr,
	}
	st.Reference, st.WindowAverage = ep.mon.state()
	if ns := a.lastSwap.Load(); ns != 0 {
		st.LastSwap = time.Unix(0, ns)
	}
	return st
}

// Name implements Index.
func (a *AdaptiveIndex) Name() string {
	if a.dur != nil {
		return "Flood+Durable"
	}
	return "Flood+Adaptive"
}

// NumShards implements Store: a flat store is one shard.
func (a *AdaptiveIndex) NumShards() int { return 1 }

// Shard implements Store: a flat store is its own shard 0.
func (a *AdaptiveIndex) Shard(int) *AdaptiveIndex { return a }

// ShardStats implements Store: a flat store has no per-shard block.
func (a *AdaptiveIndex) ShardStats() []ShardStat { return nil }

// SizeBytes implements Index: current base metadata plus the insert log's
// sealed table and the raw rows of its partial block.
func (a *AdaptiveIndex) SizeBytes() int64 {
	ep := a.epoch.Load()
	return ep.flood.SizeBytes() + ep.log.sizeBytes()
}

// NumRows returns the total row count (base + pending inserts), including
// tombstoned rows not yet compacted; LiveRows excludes them.
func (a *AdaptiveIndex) NumRows() int {
	ep := a.epoch.Load()
	return ep.flood.Table().NumRows() + int(ep.log.rows())
}

// Deleted returns the number of tombstoned (not yet compacted) rows across
// the base index and the insert log. Approximate under concurrent mutation.
func (a *AdaptiveIndex) Deleted() int {
	ep := a.epoch.Load()
	return ep.flood.idx.Deleted() + ep.log.tomb.Load().Dead()
}

// LiveRows returns the number of rows queries can observe: physical rows
// minus tombstoned rows. Approximate under concurrent mutation.
func (a *AdaptiveIndex) LiveRows() int {
	ep := a.epoch.Load()
	return ep.flood.Table().NumRows() + int(ep.log.rows()) -
		ep.flood.idx.Deleted() - ep.log.tomb.Load().Dead()
}

// Epoch returns the number of completed generation swaps. It is strictly
// monotonic: concurrent readers can assert they never observe the epoch
// counter move backwards across a relearn or merge.
func (a *AdaptiveIndex) Epoch() int64 { return a.epochGen.Load() }

// Layout returns the currently serving layout (it changes after a relearn).
func (a *AdaptiveIndex) Layout() Layout { return a.epoch.Load().flood.Layout() }

// Index returns the currently serving Flood index. The returned index is
// immutable but goes stale at the next swap; use it for inspection, not as
// a serving handle.
func (a *AdaptiveIndex) Index() *Flood { return a.epoch.Load().flood }

var _ query.BatchIndex = (*AdaptiveIndex)(nil)

// sideLog is the insert side of a generation: an append-only log whose
// published prefix is immutable. Writers (serialized by the facade's writer
// lock) append a row and then advance the atomic row count; readers load the
// count once and may read any prefix up to it without locking — the count's
// release/acquire ordering guarantees those rows are fully written. Each row
// is held once: the log's whole blocks are one compressed table the writer
// extends a block at a time, and only the partial block past them (under
// colstore.BlockSize rows) is raw, so a read runs the shared scan stage over
// the table and encodes the partial block for itself. Every reader of the
// log's values goes through the methods below, the only code that knows this
// layout.
type sideLog struct {
	names []string
	// state is published before the count passes its last row, so a reader
	// that loads the count and then state finds every row below the count in
	// it. Under the writer lock the sealed table holds exactly the count's
	// whole blocks.
	state atomic.Pointer[logState]
	count atomic.Int64
	// tomb marks deleted log rows. Published values are immutable; a scan
	// captures the pointer once, so its pass over the sealed table and the
	// partial block masks against one consistent deletion snapshot.
	tomb atomic.Pointer[colstore.Tombstones]
}

// logState is one layout of the log: rows [0, k·BlockSize) compressed in
// sealed, and the rows past them in tail, BlockSize slots per column, column
// after column, of which the count says how many are written. The writer
// fills a tail in place and, once it is full, seals it into the next state's
// table beside a fresh tail, so a tail is never written again once its block
// is sealed.
type logState struct {
	sealed *colstore.Table
	tail   []int64
}

func newSideLog(names []string) *sideLog {
	l := &sideLog{names: names}
	l.state.Store(&logState{
		sealed: colstore.MustNewTable(names, make([][]int64, len(names))),
		tail:   make([]int64, len(names)*colstore.BlockSize),
	})
	return l
}

// rows returns the published row count; rows below it are immutable.
func (l *sideLog) rows() int64 { return l.count.Load() }

// append adds one row of the log's width (apply validates every row first),
// sealing a block when it completes one. Callers must serialize appends (the
// facade's writer lock); readers are never blocked. The row goes into the
// tail past the published count, and a completed block is published in a new
// state before the count advances over it.
func (l *sideLog) append(row []int64) {
	s, n := l.state.Load(), l.count.Load()
	i := int(n) - s.sealed.NumRows()
	for c, v := range row {
		s.tail[c*colstore.BlockSize+i] = v
	}
	if i+1 == colstore.BlockSize {
		l.state.Store(&logState{
			sealed: s.sealed.AppendBlocks(l.part(s, i+1)),
			tail:   make([]int64, len(row)*colstore.BlockSize),
		})
	}
	l.count.Store(n + 1)
}

// get returns column c of log row r, which must be below the published
// count: from the sealed table below its row count, from the tail at or
// above it.
func (l *sideLog) get(c, r int) int64 {
	s := l.state.Load()
	if k := s.sealed.NumRows(); r >= k {
		return s.tail[c*colstore.BlockSize+r-k]
	}
	return s.sealed.Get(c, r)
}

// decode returns log rows [from, to), all below the published count, as
// fresh column-major slices: the sealed blocks they reach decoded whole from
// the block holding from, then the tail's raw values, with the rows before
// from cut off.
func (l *sideLog) decode(from, to int64) [][]int64 {
	s := l.state.Load()
	lo, hi := int(from-from%colstore.BlockSize), int(to)
	k := min(s.sealed.NumRows(), hi)
	out := l.part(s, hi-k)
	for c, tail := range out {
		col := make([]int64, 0, hi-lo+colstore.BlockSize)
		for b := lo; b < k; b += colstore.BlockSize {
			col = col[:len(col)+s.sealed.Column(c).DecodeBlock(b/colstore.BlockSize, col[len(col):cap(col)])]
		}
		out[c] = append(col[:k-lo], tail...)[int(from)-lo:]
	}
	return out
}

// seed appends cols, one slice per column, to this empty log, which seals
// their whole blocks. Only valid before the log's epoch is visible to any
// other goroutine (the swap holds the writer lock and the epoch pointer is
// not yet stored; OpenDurable has not returned).
func (l *sideLog) seed(cols [][]int64) {
	row := make([]int64, len(cols))
	for r := range cols[0] {
		for c := range cols {
			row[c] = cols[c][r]
		}
		l.append(row)
	}
}

// encoder returns the writer of the snapshot section holding the log's first
// n rows. The caller holds the writer lock, so the sealed table holds exactly
// n's whole blocks: the section is that table as it stands, then the partial
// block past it (colstore.Table.EncodeSealed; OpenDurable reads it back with
// colstore.DecodeSealed).
func (l *sideLog) encoder(n int64) func(*wire.Writer) {
	s := l.state.Load()
	part := l.part(s, int(n)-s.sealed.NumRows())
	return func(w *wire.Writer) { s.sealed.EncodeSealed(w, part) }
}

// part returns the first m rows of s's tail, column-major.
func (l *sideLog) part(s *logState, m int) [][]int64 {
	cols := make([][]int64, len(l.names))
	for c := range cols {
		cols[c] = s.tail[c*colstore.BlockSize : c*colstore.BlockSize+m]
	}
	return cols
}

// sizeBytes reports the log's footprint: the sealed table's encoded bytes
// plus the raw values of the rows in the partial block.
func (l *sideLog) sizeBytes() int64 {
	n, s := l.rows(), l.state.Load()
	return s.sealed.SizeBytes() + max(n-int64(s.sealed.NumRows()), 0)*int64(len(l.names))*8
}

// scan runs q over the log's first n rows through the shared scan stage,
// accumulating matches into agg and returning the log's stats: once over
// the sealed rows and once over the partial block past them, encoded for
// this read, each a single span checked on every filtered dimension with the
// query's workers. ctl, when non-nil, carries the query's cancellation
// signal and limit budget into both. When agg collects rows, each table is
// placed at logStart, the id of log row 0, plus its first log row, so a log
// row's id does not depend on which earlier tables delivered or on which
// version of the log's tables it was read from.
func (l *sideLog) scan(ctl *query.Control, q Query, n int64, agg Aggregator, workers int, logStart int64) Stats {
	var st Stats
	t0 := time.Now()
	tomb := l.tomb.Load()
	s := l.state.Load()
	k := min(int64(s.sealed.NumRows()), n)
	rc, _ := agg.(*query.RowCollector)
	run := func(t *colstore.Table, start, end int64, words []uint64) {
		if rc != nil {
			rc.PinSourceAt(t, logStart+start)
		}
		spans := []core.Span{{End: int32(end - start), Mask: plan.FilterMask(q)}}
		core.ScanSpans(t, words, ctl, q, spans, agg, workers, &st)
	}
	if k > 0 {
		run(s.sealed, 0, k, tomb.Words())
	}
	if n > k && !ctl.Stopped() {
		run(colstore.MustNewTable(l.names, l.part(s, int(n-k))), k, n, tomb.Slice(int(k)>>6))
	}
	st.ScanTime = time.Since(t0)
	st.Total = st.ScanTime
	return st
}

// deleteRows tombstones the given log rows (indices below n, the caller's
// published-count snapshot) and returns how many were newly deleted. Callers
// serialize with appends (the facade's writer lock); readers are never
// blocked — they capture the previous tombstone version and keep a
// consistent snapshot.
func (l *sideLog) deleteRows(rows []int, n int64) int {
	if len(rows) == 0 {
		return 0
	}
	nt, added := colstore.AddTombstones(l.tomb.Load(), int(n), rows)
	if added > 0 {
		l.tomb.Store(nt)
	}
	return added
}

// matchRows returns the live log rows among the first n that satisfy q, in
// ascending order: the same scan as a query's, into a row collector with log
// row 0 at id 0. Caller holds the facade's writer lock, so rows below n and
// the tombstone set are stable.
func (l *sideLog) matchRows(q Query, n int64) []int {
	var rc query.RowCollector
	l.scan(nil, q, n, &rc, 1, 0)
	rows := make([]int, rc.Len())
	for i, id := range rc.IDs() {
		rows[i] = int(id)
	}
	return rows
}

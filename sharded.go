// Sharded Flood: a partitioned engine over independent adaptive shards.
//
// ShardedIndex splits the table by range on one dimension — split points
// fitted from a learned CDF over a sample, so shards stay balanced under
// skew — and runs a full adaptive Flood per shard. Queries prune shards
// whose key range misses the predicate on the split dimension, then fan the
// survivors out in parallel with a shared cancellation signal and LIMIT
// budget; maintenance is shard-local (drift in one shard relearns only that
// shard, the others keep serving on their epochs untouched). See
// docs/SHARDING.md for the design.

package flood

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
	"flood/internal/shard"
)

// shardStride carves the Select row-id space into fixed per-shard regions:
// shard s's rows occupy ids [s<<shardStrideBits, (s+1)<<shardStrideBits).
// The stride (2^40 rows) is far above any single shard's base + insert-log
// size, so id→shard resolution is pure arithmetic and per-shard local ids
// are exactly the ids the shard's own Select would produce.
const shardStrideBits = 40

// shardStride is the id-space width reserved per shard.
const shardStride = int64(1) << shardStrideBits

// ShardedOptions tunes NewSharded. Nil picks 4 shards split on the
// dimension the training workload filters most often.
type ShardedOptions struct {
	// Shards is the target shard count (default 4). The effective count can
	// come out lower when the split column has too few distinct values to
	// support that many balanced partitions.
	Shards int
	// Dim is the split dimension (physical column index). Negative picks
	// the dimension filtered by the most training queries — the choice that
	// maximizes how often a predicate prunes shards.
	Dim int
	// Splits overrides learned split fitting with explicit, strictly
	// increasing split points (shard i holds [Splits[i-1], Splits[i])).
	// When set, Shards is ignored.
	Splits []int64
	// Build supplies the per-shard build options. A nil CostModel is
	// calibrated once on the full table and shared by every shard build, so
	// the calibration cost is paid once, not per shard.
	Build *Options
	// Adaptive tunes each shard's adaptive facade (nil picks defaults).
	Adaptive *AdaptiveConfig
}

func (o *ShardedOptions) withDefaults() ShardedOptions {
	out := ShardedOptions{Dim: -1}
	if o != nil {
		out = *o
	}
	if out.Shards <= 0 {
		out.Shards = 4
	}
	return out
}

// ShardStat is one shard's slice of a ShardedIndex's state, for stats
// endpoints and skew diagnostics.
type ShardStat struct {
	// Shard is the shard's index in split order.
	Shard int `json:"shard"`
	// Lo and Hi are the shard's inclusive key bounds on the split dimension.
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Rows is the shard's live row count (excluding tombstones).
	Rows int `json:"rows"`
	// Pending is the shard's unmerged insert-log row count.
	Pending int `json:"pending"`
	// Epoch counts the shard's completed generation swaps.
	Epoch int64 `json:"epoch"`
	// Relearns and Merges count the shard's completed background rebuilds.
	Relearns int64 `json:"relearns"`
	Merges   int64 `json:"merges"`
	// Queries is the number of queries the shard has served.
	Queries int64 `json:"queries"`
}

// ShardedIndex is a partitioned serving engine: independent adaptive Flood
// indexes over disjoint key ranges of one split dimension, behind the same
// query and Insert/Delete/Update surface as the flat facades. Queries whose predicate on the split
// dimension misses a shard's range never touch that shard; queries fully
// contained in one shard delegate to it directly on the zero-allocation
// path. Mutations route by split point. Each shard adapts independently —
// its own drift monitor, workload reservoir, and background rebuilds — so a
// relearn in one shard leaves every other shard's epoch untouched.
//
// Concurrency matches AdaptiveIndex per shard: queries and mutations from
// any number of goroutines. Cross-shard updates that reassign the split
// dimension are atomic per shard, not transactional across shards (see
// Update).
type ShardedIndex struct {
	mutableSurface
	router *shard.Router
	// shards are in-memory or durable all alike: the durable form is the
	// same indexes, each over its own subdirectory of the manifest's.
	shards []*AdaptiveIndex
	names  []string

	// ckptMu serializes whole-store checkpoints.
	ckptMu sync.Mutex
}

// NewSharded partitions tbl on a split dimension and builds one adaptive
// Flood per shard, in parallel. Split points are fitted from a learned CDF
// over a sample of the split column so shards balance under skew; each
// shard's layout is learned against the training queries overlapping its
// key range (clipped to the shard's bounds), sharing one cost model
// calibrated on the full table. The table is not retained; each shard holds
// a reordered copy of its partition.
func NewSharded(tbl *Table, train []Query, opts *ShardedOptions) (*ShardedIndex, error) {
	o := opts.withDefaults()
	r, floods, err := planShards(tbl, train, o)
	if err != nil {
		return nil, err
	}
	shards := make([]*AdaptiveIndex, len(floods))
	for i, f := range floods {
		shards[i] = NewAdaptiveIndex(f, o.Adaptive)
	}
	return newShardedIndex(r, shards), nil
}

// planShards resolves the split dimension and split points, and builds one
// index per shard.
func planShards(tbl *Table, train []Query, o ShardedOptions) (*shard.Router, []*Flood, error) {
	dim := o.Dim
	if dim < 0 {
		dim = shard.ChooseDim(train, tbl.NumCols())
	}
	if dim >= tbl.NumCols() {
		return nil, nil, fmt.Errorf("flood: sharded split dimension %d out of range (table has %d columns)", dim, tbl.NumCols())
	}
	splits := o.Splits
	if splits == nil {
		splits = shard.FitSplits(tbl.Raw(dim), o.Shards)
	}
	r, err := shard.NewRouter(dim, splits)
	if err != nil {
		return nil, nil, err
	}
	floods, err := buildShards(tbl, train, r, o.Build)
	return r, floods, err
}

// newShardedIndex assembles the facade over its shards; every shard shares
// one schema and one set of column names.
func newShardedIndex(r *shard.Router, shards []*AdaptiveIndex) *ShardedIndex {
	s := &ShardedIndex{router: r, shards: shards, names: shards[0].Index().Table().Names()}
	s.surface = newSurface(s, shards[0].schema, s.names)
	return s
}

// buildShards partitions tbl by the router and builds every shard index in
// parallel — the build-time speedup scales with cores because each shard's
// layout search and construction run independently. One cost model is
// calibrated up front (on the full table) and shared, so no shard pays the
// calibration cost and empty shards (possible under explicit splits) build
// cleanly.
func buildShards(tbl *Table, train []Query, r *shard.Router, bopts *Options) ([]*Flood, error) {
	o := bopts.orDefault()
	if o.CostModel == nil {
		m, err := Calibrate(tbl, train, &o)
		if err != nil {
			return nil, fmt.Errorf("flood: calibrating shared shard cost model: %w", err)
		}
		o.CostModel = m
	}
	// Decode every column once; the per-shard gathers index into these
	// read-only slices from their goroutines.
	raw := make([][]int64, tbl.NumCols())
	for c := range raw {
		raw[c] = tbl.Raw(c)
	}
	parts := shard.Partition(raw[r.Dim()], r)
	names := tbl.Names()
	floods := make([]*Flood, len(parts))
	err := eachShard(len(parts), "building", func(i int) (err error) {
		floods[i], err = Build(gatherTable(names, raw, parts[i]), clipWorkload(train, r, i), &o)
		return err
	})
	return floods, err
}

// eachShard runs fn(i) for every shard i concurrently and waits for all of
// them — every shard is attempted even when one fails — then returns the
// lowest-numbered shard's error, wrapped with what it was doing.
func eachShard(n int, doing string, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("flood: %s shard %d: %w", doing, i, err)
		}
	}
	return nil
}

// gatherTable materializes the rows of one partition as a fresh table.
func gatherTable(names []string, raw [][]int64, rows []int) *Table {
	cols := make([][]int64, len(raw))
	for c := range raw {
		col := make([]int64, len(rows))
		src := raw[c]
		for j, row := range rows {
			col[j] = src[row]
		}
		cols[c] = col
	}
	return colstore.MustNewTable(names, cols)
}

// clipWorkload selects the training queries overlapping shard i's key range
// and clips their split-dimension ranges to the shard's bounds, so each
// shard's layout is learned against the selectivities it will actually
// serve. A shard no training query overlaps falls back to the full
// workload: Build requires a non-empty sample, and the global workload is
// the best available prior.
func clipWorkload(train []Query, r *shard.Router, i int) []Query {
	lo, hi := r.Bounds(i)
	dim := r.Dim()
	out := make([]Query, 0, len(train))
	for _, q := range train {
		if dim >= len(q.Ranges) {
			out = append(out, q)
			continue
		}
		rg := q.Ranges[dim]
		if rg.Present && (rg.Max < lo || rg.Min > hi) {
			continue
		}
		if rg.Present && (rg.Min < lo || rg.Max > hi) {
			clipped := q
			clipped.Ranges = append([]Range(nil), q.Ranges...)
			clipped.Ranges[dim].Min = max(rg.Min, lo)
			clipped.Ranges[dim].Max = min(rg.Max, hi)
			q = clipped
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return train
	}
	return out
}

// prune returns the inclusive shard interval [first, last] a query's
// split-dimension range can reach; first > last means the predicate is
// empty and no shard needs scanning. Allocation-free.
func (s *ShardedIndex) prune(q Query) (first, last int) {
	dim := s.router.Dim()
	lo, hi := int64(NegInf), int64(PosInf)
	if dim < len(q.Ranges) {
		if rg := q.Ranges[dim]; rg.Present {
			lo, hi = rg.Min, rg.Max
		}
	}
	if lo > hi {
		return 1, 0
	}
	return s.router.ShardRange(lo, hi)
}

// pin implements engine. Each shard adapts on its own, so there is no
// store-wide generation to pin: every per-shard execution pins that shard's
// current one.
func (s *ShardedIndex) pin() generation { return s }

// run implements generation. Shards outside the predicate's split-dimension
// range are pruned; every surviving shard runs the query through its own
// generation and does its own bookkeeping, so adaptation stays shard-local,
// and all of them draw cancellation and the LIMIT budget from the one
// control. A single survivor serves the query directly (the no-merge fast
// path — zero allocations, identical to the flat engine). A row collector
// is served shard by shard in split order, each shard's sources pinned at
// that shard's id stride, so every collected id carries its owning shard in
// the high bits (id >> shardStrideBits) and the shard-local remainder is
// exactly the id the shard's own Select would have produced — the contract
// DeleteRows routes by. Batch members (workers == 1) and non-mergeable
// aggregators also visit their shards in sequence; everything else fans out.
func (s *ShardedIndex) run(ctl *query.Control, q Query, agg Aggregator, workers int) Stats {
	first, last := s.prune(q)
	rc, collecting := agg.(*query.RowCollector)
	m, mergeable := agg.(query.Mergeable)
	if first < last && mergeable && !collecting && workers != 1 {
		return s.fanOut(ctl, q, m, first, last)
	}
	var total Stats
	for i := first; i <= last && !ctl.Stopped(); i++ {
		if collecting {
			rc.SkipTo(int64(i) * shardStride)
		}
		total.Add(s.shards[i].epoch.Load().run(ctl, q, agg, workers))
	}
	return total
}

// fanOut runs q on shards [first, last] in parallel as one query's parallel
// section (core.RunTasks), each shard on its sequential kernel — the fan-out
// already provides the parallelism — into its own pooled clone of agg, and
// merges the clones in shard order. The counts of the returned Stats are the
// shards' summed; Total is the fan-out's wall time and the phase times are
// scaled to fit inside it (query.Stats.SetWall).
func (s *ShardedIndex) fanOut(ctl *query.Control, q Query, m query.Mergeable, first, last int) Stats {
	t0 := time.Now()
	n := last - first + 1
	f := shardFanPool.Get().(*shardFan)
	f.shards, f.ctl, f.q, f.m = s.shards[first:last+1], ctl, q, m
	f.clones = slices.Grow(f.clones[:0], n)[:n]
	f.stats = slices.Grow(f.stats[:0], n)[:n]
	core.RunTasks(n, f)
	var total Stats
	for i, c := range f.clones {
		if c == nil {
			continue
		}
		total.Add(f.stats[i])
		m.Merge(c)
		query.PutClone(c)
	}
	clear(f.clones)
	f.shards, f.ctl, f.q, f.m = nil, nil, Query{}, nil
	shardFanPool.Put(f)
	total.SetWall(time.Since(t0))
	return total
}

// shardFan is one fan-out as core.Tasks: task i runs the query on shards[i]
// into clones[i] and records stats[i]. Pooled with its slices.
type shardFan struct {
	shards []*AdaptiveIndex
	ctl    *query.Control
	q      Query
	m      query.Mergeable
	clones []query.Mergeable
	stats  []Stats
}

var shardFanPool = sync.Pool{New: func() any { return new(shardFan) }}

// RunTask implements core.Tasks.
func (f *shardFan) RunTask(i int, _ bool) {
	if f.ctl.Stopped() {
		return
	}
	c := query.GetClone(f.m)
	if c == nil {
		c = f.m.CloneEmpty()
	}
	f.stats[i] = f.shards[i].epoch.Load().run(f.ctl, f.q, c, 1)
	f.clones[i] = c
}

// runPieces implements generation: each shard scans the pieces overlapping
// its key range against one pinned generation of its own, and records the
// disjunction once if it served any. The loop is shard-outer so a
// collector's id watermark moves monotonically through the per-shard
// strides — every source a shard registers (base, sealed log table,
// partial-block tables) lands inside that shard's stride region.
func (s *ShardedIndex) runPieces(ctl *query.Control, pieces, shapes []Query, agg Aggregator) Stats {
	rc, collecting := agg.(*query.RowCollector)
	dim := s.router.Dim()
	mine := make([]Query, 0, len(pieces))
	var total Stats
	for i, a := range s.shards {
		if ctl.Stopped() {
			break
		}
		lo, hi := s.router.Bounds(i)
		mine = mine[:0]
		for _, piece := range pieces {
			if dim < len(piece.Ranges) {
				if rg := piece.Ranges[dim]; rg.Present && (rg.Max < lo || rg.Min > hi) {
					continue
				}
			}
			mine = append(mine, piece)
		}
		if len(mine) == 0 {
			continue
		}
		if collecting {
			rc.SkipTo(int64(i) * shardStride)
		}
		total.Add(a.epoch.Load().runPieces(ctl, mine, shapes, agg))
	}
	return total
}

// apply implements engine: the mutation is split by shard — a predicate
// reaches the shards prune leaves, an id the shard whose stride it carries,
// a row the shard owning its split-dimension value — and each part is the
// owning shard's own apply, so visibility, logging, acknowledgment and merge
// scheduling are that shard's (see AdaptiveIndex.apply). Nothing here holds a
// lock or touches a log. Rows a shard hands back — an Update that assigns the
// split dimension takes every victim's rewritten copy back instead of letting
// the shard append it — are routed like inserts once every surviving shard
// has been swept, so a rewritten row can never match the predicate a second
// time.
func (s *ShardedIndex) apply(m mutation) (int64, error) {
	dim := s.router.Dim()
	var total int64
	var moved [][]int64
	switch {
	case m.where != nil:
		part := mutation{where: m.where, rewrite: m.rewrite, set: m.set}
		for _, as := range m.set {
			if as.Col == dim {
				part.moved = &moved
			}
		}
		first, last := s.prune(*m.where)
		for i := first; i <= last; i++ {
			n, err := s.shards[i].apply(part)
			total += n
			if err != nil {
				return total, err
			}
		}
	case len(m.ids) > 0:
		parts := make([][]int64, len(s.shards))
		for _, id := range m.ids {
			if sh := int(id >> shardStrideBits); id >= 0 && sh < len(s.shards) {
				parts[sh] = append(parts[sh], id-int64(sh)*shardStride)
			}
		}
		for sh, ids := range parts {
			if len(ids) == 0 {
				continue
			}
			n, err := s.shards[sh].apply(mutation{ids: ids})
			total += n
			if err != nil {
				return total, err
			}
		}
	}
	route := func(row []int64) (int64, error) {
		if dim >= len(row) {
			return 0, fmt.Errorf("flood: row has %d values, split dimension is %d", len(row), dim)
		}
		return s.shards[s.router.Shard(row[dim])].apply(mutation{rows: [][]int64{row}})
	}
	for _, row := range moved {
		if _, err := route(row); err != nil {
			return total, err
		}
	}
	for _, row := range m.rows {
		n, err := route(row)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Name implements Index.
func (s *ShardedIndex) Name() string { return "Flood+Sharded" }

// sumShards adds one per-shard count up over the shards.
func (s *ShardedIndex) sumShards(count func(*AdaptiveIndex) int64) int64 {
	var total int64
	for _, a := range s.shards {
		total += count(a)
	}
	return total
}

// SizeBytes implements Index: the sum of the shards' index metadata.
func (s *ShardedIndex) SizeBytes() int64 { return s.sumShards((*AdaptiveIndex).SizeBytes) }

// NumRows returns the total row count across shards (including tombstoned
// rows not yet compacted).
func (s *ShardedIndex) NumRows() int {
	return int(s.sumShards(func(a *AdaptiveIndex) int64 { return int64(a.NumRows()) }))
}

// LiveRows returns the number of rows queries can observe across shards.
func (s *ShardedIndex) LiveRows() int {
	return int(s.sumShards(func(a *AdaptiveIndex) int64 { return int64(a.LiveRows()) }))
}

// Epoch returns the sum of the shards' completed generation swaps — a
// strictly monotonic counter that advances exactly when some shard's layout
// changed, so epoch-keyed caches invalidate on any shard's relearn or merge
// and survive all others.
func (s *ShardedIndex) Epoch() int64 { return s.sumShards((*AdaptiveIndex).Epoch) }

// NumShards returns the shard count.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// SplitDim returns the split dimension (physical column index).
func (s *ShardedIndex) SplitDim() int { return s.router.Dim() }

// Splits returns the split points (len NumShards-1); callers must not
// modify the slice.
func (s *ShardedIndex) Splits() []int64 { return s.router.Splits() }

// Shard returns shard i's adaptive index, for per-shard stats, triggers,
// and tests.
func (s *ShardedIndex) Shard(i int) *AdaptiveIndex { return s.shards[i] }

// ShardStats returns one entry per shard in split order: key bounds, live
// and pending rows, epoch, and rebuild counters. The per-shard row counts
// are the skew diagnostic — balanced splits keep them within a small factor
// of each other.
func (s *ShardedIndex) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, a := range s.shards {
		st := a.Stats()
		lo, hi := s.router.Bounds(i)
		out[i] = ShardStat{
			Shard:    i,
			Lo:       lo,
			Hi:       hi,
			Rows:     a.LiveRows(),
			Pending:  st.PendingRows,
			Epoch:    a.Epoch(),
			Relearns: st.Relearns,
			Merges:   st.Merges,
			Queries:  st.Queries,
		}
	}
	return out
}

// Wait blocks until no shard has a background rebuild in flight.
func (s *ShardedIndex) Wait() {
	for _, a := range s.shards {
		a.Wait()
	}
}

// Stats folds the shards' lifecycle snapshots into one: counts add,
// Rebuilding reports any shard rebuilding, LastSwap is the latest swap and
// LastError the lowest-numbered shard's failure. Reference and WindowAverage
// describe one drift monitor and stay zero; read them per shard.
func (s *ShardedIndex) Stats() AdaptiveStats {
	var out AdaptiveStats
	for _, a := range s.shards {
		st := a.Stats()
		out.Queries += st.Queries
		out.BaseRows += st.BaseRows
		out.PendingRows += st.PendingRows
		out.SampledQueries += st.SampledQueries
		out.Relearns += st.Relearns
		out.Merges += st.Merges
		out.Rebuilding = out.Rebuilding || st.Rebuilding
		if st.LastSwap.After(out.LastSwap) {
			out.LastSwap = st.LastSwap
		}
		if out.LastError == nil {
			out.LastError = st.LastError
		}
	}
	return out
}

// Close stops every shard's background work (and, in the durable form,
// syncs and closes each shard's WAL). Queries remain valid after Close;
// they just stop adapting.
func (s *ShardedIndex) Close() error { return closeAll(s.shards) }

var _ query.BatchIndex = (*ShardedIndex)(nil)

// Morsel-driven parallel query execution (§8 "Concurrency and parallelism":
// different cells can be refined and scanned simultaneously).
//
// The scan work of one query is chopped into fixed-size, block-aligned
// morsels (~64K rows) that workers claim off a shared atomic cursor, so load
// balances even when refined ranges are wildly uneven. Workers come from a
// process-wide persistent pool shared by every index and by batched serving;
// the goroutine that issued the query always participates, so a query never
// waits for a pool slot and nesting (a parallel scan issued from inside a
// batch task) cannot deadlock: nobody ever blocks waiting for a queued task
// to be *scheduled*, only for claimed morsels to be *finished*.
//
// Each worker scans with its own pooled query.Scanner into its own
// aggregator clone (query.Mergeable) and accumulates private Stats; partial
// results merge under a lock once the worker's claim loop drains. Results
// and the Scanned/Matched/ExactMatched counters are therefore identical to a
// sequential run.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flood/internal/colstore"
	"flood/internal/query"
)

// MorselRows is the largest morsel handed to a worker: big enough to
// amortize the claim (one atomic add) and the final merge, small enough that
// a skewed range still splits across cores. It is a multiple of
// colstore.BlockSize so interior morsel boundaries align with storage blocks.
const MorselRows = 64 * 1024

// minMorselRows bounds how finely a small parallel scan is chopped; below
// this, per-morsel overhead would eat the parallel win.
const minMorselRows = 8 * 1024

// defaultParallelCutover is the default estimated scanned-row count at which
// Execute leaves the zero-alloc sequential path for the morsel engine: the
// point where the scan kernel's per-row cost (a few ns) clearly exceeds the
// fixed cost of dispatching helpers and merging clones (a few µs).
const defaultParallelCutover = 32 * 1024

// --- persistent worker pool ---

// workerPool is a process-wide set of goroutines fed by a task queue. Tasks
// are *helpers*: claim loops that drain a job's shared cursor and exit.
// Submission never blocks (a full queue just means fewer helpers), and a
// helper scheduled after its job drained returns without touching the job's
// data, so queued helpers can safely outlive the query that submitted them.
type workerPool struct {
	tasks   chan poolTask
	mu      sync.Mutex
	spawned int
}

// poolTask is one queued helper: either a plain closure (the build paths) or
// a (job, generation) pair — the jobs of the query path, morsel scans and
// parallel refinement, are recycled, so they submit by value instead of
// binding a fresh closure per query, and the generation lets a stale helper
// detect that its job has since been retired and reused (see jobFence).
type poolTask struct {
	fn  func()
	job fencedJob
	gen uint64
}

// fencedJob is a recycled job as a queued helper sees it: the fence to pass
// before touching it, and the claim loop to run once through.
type fencedJob interface {
	fence() *jobFence
	run()
}

func (t poolTask) run() {
	if t.fn != nil {
		t.fn()
		return
	}
	f := t.job.fence()
	if f.enter(t.gen) {
		t.job.run()
	}
	f.leave()
}

// jobFence guards a recycled job against the helpers of its earlier uses,
// which may still sit in the queue holding its pointer. A helper enters —
// registering itself, then checking that the generation it was queued with
// is still current — before it touches anything else in the job, and leaves
// when done; retiring a job bumps the generation first and then waits the
// entered helpers out, so a recycled job's plain fields are never written
// while a stale helper can read them.
type jobFence struct {
	gen     atomic.Uint64
	entered atomic.Int64
}

func (f *jobFence) fence() *jobFence { return f }

func (f *jobFence) enter(gen uint64) bool {
	f.entered.Add(1)
	return f.gen.Load() == gen
}

func (f *jobFence) leave() { f.entered.Add(-1) }

// shut invalidates the job for any helper still queued or racing in and
// waits out those already past the generation check. Called once the job's
// cursor is exhausted, so a straggler's claim loop returns at once — the spin
// is a few scheduler yields at most.
func (f *jobFence) shut() {
	f.gen.Add(1)
	for f.entered.Load() != 0 {
		runtime.Gosched()
	}
}

var execPool = &workerPool{tasks: make(chan poolTask, 1024)}

// maxWorkers is the concurrency target, re-read on every query so tests and
// servers that adjust GOMAXPROCS see the change without restarting the pool.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }

// ensure tops the pool up to n resident goroutines.
func (p *workerPool) ensure(n int) {
	p.mu.Lock()
	for p.spawned < n {
		p.spawned++
		go p.worker()
	}
	p.mu.Unlock()
}

func (p *workerPool) worker() {
	for t := range p.tasks {
		t.run()
	}
}

// offer enqueues up to helpers copies of t without blocking: a full queue
// just means fewer helpers (the work still completes via the participating
// caller and whichever helpers got in). Helpers are capped at GOMAXPROCS-1 —
// beyond that they add no parallelism, and the cap keeps a caller-supplied
// worker count from permanently growing the resident pool.
func (p *workerPool) offer(helpers int, t poolTask) {
	if max := maxWorkers() - 1; helpers > max {
		helpers = max
	}
	if helpers <= 0 {
		return
	}
	p.ensure(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case p.tasks <- t:
		default:
			return
		}
	}
}

// fanOut offers up to helpers copies of run to the pool, then runs one claim
// loop on the calling goroutine. run must be safe to execute concurrently
// and must be a no-op once its job's cursor is exhausted.
func (p *workerPool) fanOut(helpers int, run func()) {
	p.offer(helpers, poolTask{fn: run})
	run()
}

// poolFor runs fn over [0, n) in grain-sized chunks claimed from a shared
// cursor by pool workers plus the calling goroutine. It returns once every
// chunk has finished.
func poolFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks == 1 {
		fn(0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(chunks)
	run := func() {
		for {
			c := int(cursor.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
			wg.Done()
		}
	}
	helpers := maxWorkers() - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	execPool.fanOut(helpers, run)
	wg.Wait()
}

// parallelFor splits [0, n) into one contiguous chunk per available worker
// and runs fn on each concurrently through the persistent pool. Used by
// Build for the embarrassingly parallel stages; results are identical to a
// sequential run.
func parallelFor(n int, fn func(lo, hi int)) {
	workers := maxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	poolFor(n, (n+workers-1)/workers, fn)
}

// RunBatch runs fn(i) for every i in [0, n) across the shared worker pool
// and returns when all calls complete. The calling goroutine participates,
// so RunBatch makes progress even when the pool is saturated, and calls
// issued from inside another batch cannot deadlock. It is the batch path of
// every facade: each member runs Run with workers == 1 while the batch fans
// out across cores.
func RunBatch(n int, fn func(i int)) {
	poolFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// --- morsel scan engine ---

// morselTarget picks a morsel size for a scan of est rows across workers:
// roughly four morsels per worker for load balance, clamped to
// [minMorselRows, MorselRows] and rounded to a block multiple.
func morselTarget(est, workers int) int {
	t := est / (4 * workers)
	if t > MorselRows {
		t = MorselRows
	}
	if t < minMorselRows {
		t = minMorselRows
	}
	return t - t%colstore.BlockSize
}

// appendMorsels chops spans into morsels — spans themselves, each one unit
// of claimable scan work — of about target rows, the residual mask inherited
// from the span a morsel was cut from. Interior split points sit at absolute
// multiples of target, so they align with storage blocks and the per-block
// scan kernel visits exactly the same blocks as a sequential scan
// (Scanned/Matched stay bit-identical).
func appendMorsels(dst, spans []Span, target int) []Span {
	for _, sp := range spans {
		s, e := int(sp.Start), int(sp.End)
		for s < e {
			next := (s/target + 1) * target
			if next > e {
				next = e
			}
			dst = append(dst, Span{Start: int32(s), End: int32(next), Mask: sp.Mask})
			s = next
		}
	}
	return dst
}

// morselJob is the shared state of one parallel scan: the morsel list, the
// claim cursor, and the merge point. wg counts morsels, not helpers — a
// worker releases its claimed morsels only after folding its partial
// aggregate and stats into the job, so wg.Wait() implies the merge is done.
//
// Jobs are pooled across queries, each keeping its morsel buffer; the fence
// keeps the helpers of a finished query off a reused job.
type morselJob struct {
	jobFence
	t       *colstore.Table
	q       query.Query
	ctl     *query.Control // nil: unconditioned scan
	tomb    []uint64       // tombstone snapshot captured by the caller
	morsels []Span
	cursor  atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	agg     query.Mergeable
	st      query.Stats // merged scan counters
}

var morselJobPool = sync.Pool{New: func() any { return new(morselJob) }}

// retire shuts the fence, after which the job's fields may be rewritten and
// the job pooled. Called after wg.Wait.
func (j *morselJob) retire() {
	j.shut()
	j.t = nil
	j.q = query.Query{}
	j.ctl = nil
	j.tomb = nil
	j.morsels = j.morsels[:0]
	j.agg = nil
	j.cursor.Store(0)
	j.st = query.Stats{}
	morselJobPool.Put(j)
}

// run is one worker's claim loop; it executes on the issuing goroutine and
// on any pool helpers the job attracted. The scanner and aggregator clone
// are acquired lazily so a helper that arrives after the job drained (or
// loses every claim race) allocates nothing and never touches j.q.
func (j *morselJob) run() {
	if int(j.cursor.Load()) >= len(j.morsels) {
		return
	}
	var (
		w    spanWalker
		agg  query.Mergeable
		st   query.Stats
		done int
	)
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= len(j.morsels) {
			break
		}
		done++
		if j.ctl.Stopped() {
			// Cancellation/limit stop: keep claiming so the morsel count
			// drains (wg.Wait depends on it), but skip the scan work. The
			// job finishes in O(remaining morsels) atomic adds.
			continue
		}
		if w.sc == nil {
			w.open(j.t, j.tomb, j.ctl)
			// Prefer a recycled clone (compatibility only reads immutable
			// config, so no lock); otherwise clone under the job lock —
			// another worker may be Merge-ing into j.agg right now, and a
			// user-supplied Mergeable is free to read state in CloneEmpty
			// that Merge mutates.
			if agg = query.GetClone(j.agg); agg == nil {
				j.mu.Lock()
				agg = j.agg.CloneEmpty()
				j.mu.Unlock()
			}
		}
		w.scan(j.q, j.morsels[i], agg, &st)
	}
	// A worker that only drained stopped claims has no scanner or partial
	// aggregate to fold in, but must still release its claimed morsels.
	if w.sc != nil {
		w.close()
		j.mu.Lock()
		j.agg.Merge(agg)
		j.st.Add(st)
		j.mu.Unlock()
		query.PutClone(agg)
	}
	j.wg.Add(-done)
}

// scanParallel runs spans on the morsel engine with workers > 1 workers,
// merging worker partials into agg and the scan counters into st. est is the
// exact row count of spans. It reports false, having done nothing, when the
// work does not split into more than one morsel.
func scanParallel(t *colstore.Table, tomb []uint64, ctl *query.Control, q query.Query, spans []Span, agg query.Mergeable, workers, est int, st *query.Stats) bool {
	j := morselJobPool.Get().(*morselJob)
	j.morsels = appendMorsels(j.morsels, spans, morselTarget(est, workers))
	if len(j.morsels) <= 1 {
		j.morsels = j.morsels[:0]
		morselJobPool.Put(j)
		return false
	}
	j.t, j.q, j.ctl, j.tomb, j.agg = t, q, ctl, tomb, agg
	j.wg.Add(len(j.morsels))
	helpers := workers - 1
	if helpers > len(j.morsels)-1 {
		helpers = len(j.morsels) - 1
	}
	execPool.offer(helpers, poolTask{job: j, gen: j.gen.Load()})
	j.run()
	j.wg.Wait()
	st.Add(j.st)
	j.retire()
	return true
}

// --- parallel refinement ---

// refineGrain is the number of ranges a worker claims at a time.
const refineGrain = 32

// refineJob is the shared state of one parallel refinement: the ranges, a
// claim cursor over them in refineGrain chunks, and a count of chunks still
// out. Pooled and fenced like morselJob, so a query that refines in parallel
// allocates nothing for it.
type refineJob struct {
	jobFence
	f      *Flood
	q      query.Query
	spans  []Span
	cells  []int32
	cursor atomic.Int64
	wg     sync.WaitGroup
}

var refineJobPool = sync.Pool{New: func() any { return new(refineJob) }}

// run is one worker's claim loop, on the issuing goroutine and on any pool
// helpers the job attracted.
func (j *refineJob) run() {
	done := 0
	for {
		lo := (int(j.cursor.Add(1)) - 1) * refineGrain
		if lo >= len(j.spans) {
			break
		}
		hi := min(lo+refineGrain, len(j.spans))
		j.f.refineRanges(j.q, j.spans[lo:hi], j.cells[lo:hi])
		done++
	}
	j.wg.Add(-done)
}

// refineParallel narrows spans over the worker pool, refineGrain ranges at a
// time. Ranges are independent, so the result is the sequential loop's.
func (f *Flood) refineParallel(q query.Query, spans []Span, cells []int32) {
	j := refineJobPool.Get().(*refineJob)
	j.f, j.q, j.spans, j.cells = f, q, spans, cells
	chunks := (len(spans) + refineGrain - 1) / refineGrain
	j.wg.Add(chunks)
	execPool.offer(chunks-1, poolTask{job: j, gen: j.gen.Load()})
	j.run()
	j.wg.Wait()
	j.shut()
	j.f, j.q, j.spans, j.cells = nil, query.Query{}, nil, nil
	j.cursor.Store(0)
	refineJobPool.Put(j)
}

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
	"math/bits"
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

// poolTask is one queued helper: either a plain closure (the build and
// refinement paths) or a (job, generation) pair — morsel jobs are recycled,
// so they submit by value instead of binding a fresh closure per query, and
// the generation lets a stale helper detect that its job has since been
// retired and reused (see morselJob.helperRun).
type poolTask struct {
	fn  func()
	job *morselJob
	gen uint64
}

func (t poolTask) run() {
	if t.fn != nil {
		t.fn()
		return
	}
	t.job.helperRun(t.gen)
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

// morsel is one unit of claimable scan work: a physical row range plus the
// residual-filter mask inherited from the scan range it was cut from.
type morsel struct {
	start, end int32
	mask       uint64
}

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

// appendMorsels chops refined scan ranges into morsels of about target rows.
// Interior split points sit at absolute multiples of target, so they align
// with storage blocks and the per-block scan kernel visits exactly the same
// blocks as a sequential scan (Scanned/Matched stay bit-identical).
func appendMorsels(dst []morsel, ranges []scanRange, target int) []morsel {
	for _, rg := range ranges {
		s, e := int(rg.start), int(rg.end)
		for s < e {
			next := (s/target + 1) * target
			if next > e {
				next = e
			}
			dst = append(dst, morsel{start: int32(s), end: int32(next), mask: rg.mask})
			s = next
		}
	}
	return dst
}

// maskDims expands a residual-filter bitmask into dimension indexes.
func maskDims(mask uint64, buf []int) []int {
	buf = buf[:0]
	for mask != 0 {
		buf = append(buf, bits.TrailingZeros64(mask))
		mask &= mask - 1
	}
	return buf
}

// morselJob is the shared state of one parallel scan: the morsel list, the
// claim cursor, and the merge point. wg counts morsels, not helpers — a
// worker releases its claimed morsels only after folding its partial
// aggregate and stats into the job, so wg.Wait() implies the merge is done.
//
// Jobs are pooled across queries. Helpers queued for a finished query may
// still hold the job pointer, so reuse is guarded by (gen, entered): a
// helper atomically registers in entered, checks that the generation it was
// queued with is still current, and only then touches the rest of the job;
// retire bumps gen first and then waits entered out, so a recycled job's
// plain fields are never written while a stale helper can read them.
type morselJob struct {
	f                       *Flood
	q                       query.Query
	ctl                     *query.Control // nil: unconditioned scan
	tomb                    []uint64       // tombstone snapshot captured by execute
	morsels                 []morsel
	cursor                  atomic.Int64
	gen                     atomic.Uint64
	entered                 atomic.Int64
	wg                      sync.WaitGroup
	mu                      sync.Mutex
	agg                     query.Mergeable
	scanned, matched, exact int64
}

var morselJobPool = sync.Pool{New: func() any { return new(morselJob) }}

// helperRun is the pool-helper entry point: it joins the job only when gen
// still matches the generation the helper was queued with. The entered
// counter is raised before the check and lowered after run returns, giving
// retire a fence to wait on.
func (j *morselJob) helperRun(gen uint64) {
	j.entered.Add(1)
	if j.gen.Load() == gen {
		j.run()
	}
	j.entered.Add(-1)
}

// retire invalidates the job for any helper still queued (or racing in) and
// waits out helpers already past the generation check, after which the
// job's fields may be rewritten and the job pooled. Called after wg.Wait,
// so the cursor is exhausted and any straggler's run() returns immediately —
// the spin is a few scheduler yields at most.
func (j *morselJob) retire() {
	j.gen.Add(1)
	for j.entered.Load() != 0 {
		runtime.Gosched()
	}
	j.f = nil
	j.q = query.Query{}
	j.ctl = nil
	j.tomb = nil
	j.morsels = nil
	j.agg = nil
	j.cursor.Store(0)
	j.scanned, j.matched, j.exact = 0, 0, 0
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
		sc       *query.Scanner
		agg      query.Mergeable
		st       query.Stats
		dimsBuf  [64]int
		dims     []int
		lastMask uint64
		haveDims bool
		done     int
	)
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= len(j.morsels) {
			break
		}
		if j.ctl.Stopped() {
			// Cancellation/limit stop: keep claiming so the morsel count
			// drains (wg.Wait depends on it), but skip the scan work. The
			// job finishes in O(remaining morsels) atomic adds.
			done++
			continue
		}
		if sc == nil {
			sc = query.GetScanner(j.f.t)
			sc.SetControl(j.ctl)
			sc.SetTombstones(j.tomb)
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
		m := j.morsels[i]
		if m.mask == 0 {
			s, mt := sc.ScanExactRange(int(m.start), int(m.end), agg)
			st.Scanned += s
			st.Matched += mt
			st.ExactMatched += mt
		} else {
			if !haveDims || m.mask != lastMask {
				dims = maskDims(m.mask, dimsBuf[:0])
				lastMask, haveDims = m.mask, true
			}
			s, mt := sc.ScanRange(j.q, dims, int(m.start), int(m.end), agg)
			st.Scanned += s
			st.Matched += mt
		}
		done++
	}
	// A worker that only drained stopped claims has no scanner or partial
	// aggregate to fold in, but must still release its claimed morsels.
	if sc != nil {
		sc.Release()
		j.mu.Lock()
		j.agg.Merge(agg)
		j.scanned += st.Scanned
		j.matched += st.Matched
		j.exact += st.ExactMatched
		j.mu.Unlock()
		query.PutClone(agg)
	}
	j.wg.Add(-done)
}

// scanParallel runs the scan phase of q over ranges on the morsel engine,
// merging worker partials into agg and the scan counters into st. est is the
// exact row count of ranges (already computed by the caller); workers <= 0
// uses GOMAXPROCS. Falls back to the sequential kernel when the work does
// not split.
func (f *Flood) scanParallel(q query.Query, ranges []scanRange, agg query.Mergeable, st *query.Stats, workers, est int, es *execScratch, ctl *query.Control, tomb []uint64) {
	if workers <= 0 {
		workers = maxWorkers()
	}
	es.morsels = appendMorsels(es.morsels[:0], ranges, morselTarget(est, workers))
	if len(es.morsels) <= 1 || workers == 1 {
		f.scan(q, ranges, agg, st, ctl, tomb)
		return
	}
	j := morselJobPool.Get().(*morselJob)
	j.f, j.q, j.ctl, j.tomb, j.morsels, j.agg = f, q, ctl, tomb, es.morsels, agg
	j.wg.Add(len(j.morsels))
	helpers := workers - 1
	if helpers > len(j.morsels)-1 {
		helpers = len(j.morsels) - 1
	}
	execPool.offer(helpers, poolTask{job: j, gen: j.gen.Load()})
	j.run()
	j.wg.Wait()
	st.Scanned += j.scanned
	st.Matched += j.matched
	st.ExactMatched += j.exact
	j.retire()
	morselJobPool.Put(j)
}

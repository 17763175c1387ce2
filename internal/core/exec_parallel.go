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
// to be *scheduled*, only for claimed work to be *finished*.
//
// Each worker scans with its own pooled query.Scanner into its own
// aggregator clone (query.Mergeable) and accumulates private Stats; partial
// results merge under a lock once the worker's claim loop drains. Results
// and the Scanned/Matched/ExactMatched counters are therefore identical to a
// sequential run.
//
// There is one way into the pool, RunTasks: a morsel scan (one task per
// worker), a parallel refinement, a sharded fan-out, a build stage and a
// batch of queries are each one pooled RunTasks job. A helper that has just
// run a query's own parallel section keeps polling the queue for spinWindow
// before it parks, so the next query of a closed loop finds it running
// instead of paying a parked goroutine's wake-up; a helper of a closure — a
// build stage or a batch — parks at once.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// fixed cost of offering a helper and merging clones. That fixed cost is a
// few µs only while a helper is awake: a parked one joined olap_flat's
// morsel scans 57 µs after the offer on the two-core reference host, longer
// than the median query, which is why helpers linger after query jobs
// (spinWindow) — with that, it joins 2 µs after the offer on average.
const defaultParallelCutover = 32 * 1024

// spinWindow is how long a helper that has just run a query job keeps
// polling the queue (yielding on every pass, see spin) before it parks. It
// is close to the measured wake cost of a parked goroutine on the two-core
// reference host — a futex call plus an idle vCPU's wake, 25–60 µs to the
// first instruction and more to reach steady state — so a closed-loop
// caller's next query lands inside it, while an idle process stops burning
// CPU within a fraction of a millisecond. Closures (the build stages and
// RunBatch) never linger: their caller has no next query waiting on the
// helper, and an earlier prototype that spun after every task (yielding and
// reading the clock on every look) made the HTTP serving workload's p50
// 13–15% worse.
const spinWindow = 150 * time.Microsecond

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

// poolTask is one queued helper: the job, the generation the job had when
// the helper was queued (jobs are recycled; see taskJob), and whether the
// helper lingers afterwards. linger travels in the task because the job may
// be reused by another caller the moment the helper leaves it.
type poolTask struct {
	job    *taskJob
	gen    uint64
	linger bool
}

// run runs the helper and reports whether it should linger (poll): after a
// query's own parallel section the next query's likely follows within
// spinWindow; after a closure — a build stage or a batch — the caller has no
// next query waiting on this helper.
func (t poolTask) run() bool {
	if t.job.enter(t.gen) {
		t.job.run(true, t.linger)
	}
	t.job.leave()
	return t.linger
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
		for t.run() {
			var ok bool
			if t, ok = p.poll(); !ok {
				break
			}
		}
	}
}

// spinners is the number of helpers inside poll and spins the number of
// times one entered it; tests read both.
var (
	spinners atomic.Int32
	spins    atomic.Int64
)

// spinLooks is the number of looks a spin takes per pass; each pass ends
// with one clock read and the yields. A Gosched and a clock read on every
// look halved the speed of a scan running on the other core of the reference
// host (a sequential 1M-row query, 18 → 36 µs); a few hundred looks a pass,
// about a microsecond, left it unmoved.
const spinLooks = 256

// spin calls ready until it reports true, yielding once a pass, and gives up
// after spinWindow. A pass yields twice: runtime.Gosched hands the processor
// to any goroutine queued on it, and osYield hands the CPU to any thread the
// kernel queued on the same one — the guest scheduler sometimes puts a
// helper's thread and its caller's on one vCPU, and without the thread yield
// the caller waited the whole window out: morsel scans over a 1M-row table
// had a p99 of 180–200 µs (window plus query) against 43–91 µs at the
// parent, and 38–69 µs with it.
func spin(ready func() bool) bool {
	start := time.Now()
	for {
		for range spinLooks {
			if ready() {
				return true
			}
		}
		if time.Since(start) >= spinWindow {
			return false
		}
		runtime.Gosched()
		osYield()
	}
}

// poll is a lingering helper's wait: it takes the next task off the queue
// the moment one is there and gives up once spinWindow passes with nothing
// to do. A task offered meanwhile lands in the channel buffer, not on a
// parked receiver, so no wake-up is paid.
func (p *workerPool) poll() (t poolTask, ok bool) {
	spinners.Add(1)
	spins.Add(1)
	defer spinners.Add(-1)
	ok = spin(func() bool {
		select {
		case t = <-p.tasks:
			return true
		default:
			return false
		}
	})
	return t, ok
}

// offer enqueues up to helpers copies of t without blocking: a full queue
// just means fewer helpers (the work still completes via the participating
// caller and whichever helpers got in). Helpers are capped at GOMAXPROCS-1 —
// beyond that they add no parallelism, and the cap keeps a caller-supplied
// worker count from permanently growing the resident pool. RunTasks is its
// only caller.
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

// Share counts the claimable units — morsels of a scan, tasks of a query
// job — that were handed out and how many of them pool helpers ran rather
// than the issuing goroutine.
type Share struct{ Units, Helped int64 }

// Frac is the helpers' fraction of the units counted since an earlier
// reading (0 when there were none).
func (s Share) Frac(since Share) float64 {
	if s.Units == since.Units {
		return 0
	}
	return float64(s.Helped-since.Helped) / float64(s.Units-since.Units)
}

// shareCounter is the live form of a Share.
type shareCounter struct{ units, helped atomic.Int64 }

func (c *shareCounter) load() Share { return Share{c.units.Load(), c.helped.Load()} }

var morselShare, taskShare shareCounter

// HelperShare reports, since the process started, the morsels of morsel-engine
// scans and the tasks of query jobs (RunTasks over anything but a closure: a
// fan-out, a parallel refinement, a morsel scan's per-worker tasks), each
// with how many pool helpers ran. Benchmarks report the difference of two
// readings as helper_frac.
func HelperShare() (morsels, tasks Share) { return morselShare.load(), taskShare.load() }

// --- the one way into the pool ---

// Tasks is a parallel section as RunTasks sees it: n independent tasks,
// RunTask(i, helper) running task i — helper is true on a pool goroutine,
// false on the issuing one. The query path's implementations are pooled by
// their owners, so a query's fan-out allocates nothing.
type Tasks interface {
	RunTask(i int, helper bool)
}

// taskFunc is a closure as Tasks: a build stage's chunks (parallelFor) or a
// batch's members (RunBatch). Its helpers never linger.
type taskFunc func(i int)

// RunTask implements Tasks.
func (f taskFunc) RunTask(i int, _ bool) { f(i) }

// taskJob is the shared state of one RunTasks call: the tasks, a claim cursor
// over them, and the count of tasks claimed but not yet finished (left, with
// wg for a caller that parks).
//
// Jobs are pooled, so a helper still queued from an earlier use may hold a
// job's pointer. A helper enters — registering itself, then checking that
// the generation it was queued with is still current — before it touches
// anything else in the job, and leaves when done; retiring a job bumps the
// generation first and then waits the entered helpers out, so a recycled
// job's plain fields are never written while a stale helper can read them.
type taskJob struct {
	gen     atomic.Uint64
	entered atomic.Int64
	tasks   Tasks
	n       int
	cursor  atomic.Int64
	left    atomic.Int64
	wg      sync.WaitGroup
}

var taskJobPool = sync.Pool{New: func() any { return new(taskJob) }}

func (j *taskJob) enter(gen uint64) bool {
	j.entered.Add(1)
	return j.gen.Load() == gen
}

func (j *taskJob) leave() { j.entered.Add(-1) }

// run is one claim loop, on the issuing goroutine or on a pool helper of a
// job that lingers or not. Everything it does to the job and the counters
// happens before it releases its tasks: the caller retires the job the
// moment the last one is released, and then waits for the helper to leave.
func (j *taskJob) run(helper, linger bool) {
	done := 0
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= j.n {
			break
		}
		j.tasks.RunTask(i, helper)
		done++
	}
	if helper && linger {
		taskShare.helped.Add(int64(done))
	}
	// The WaitGroup is released before left, so a caller that saw left reach
	// zero finds the WaitGroup settled and does not park in Wait: parking
	// there, to be readied by the helper's release onto the helper's own
	// processor (see RunTasks), cost the helper one in ten of the micro
	// benchmark's morsel scans. A helper that claimed nothing leaves both
	// alone: an Add, even of zero, racing the caller's Wait is a WaitGroup
	// misuse.
	if done > 0 {
		j.wg.Add(-done)
		j.left.Add(-int64(done))
	}
}

// RunTasks runs ts.RunTask(i) for every i in [0, n) over the worker pool and
// the calling goroutine, returning when all have finished. The job is
// pooled, so the call allocates nothing beyond what ts does.
//
// A query job — any ts but a closure — is one query's parallel section, and
// the next query's likely follows: its helpers linger (spinWindow), and the
// caller polls for their last tasks before it parks. A caller that parks
// leaves its processor idle; the helper that finishes the last task then
// readies the caller onto the helper's own processor, and the helper —
// displaced — sits in the run queue until an idle thread wakes for it, the
// same 50 µs wake the lingering avoids: with a parking wait, helpers joined
// only 27% of the micro benchmark's morsel scans. A closure's caller and
// helpers park at once.
func RunTasks(n int, ts Tasks) {
	if n <= 0 {
		return
	}
	_, closure := ts.(taskFunc)
	linger := !closure
	j := taskJobPool.Get().(*taskJob)
	j.tasks, j.n = ts, n
	j.left.Store(int64(n))
	j.wg.Add(n)
	if linger {
		taskShare.units.Add(int64(n))
	}
	execPool.offer(n-1, poolTask{job: j, gen: j.gen.Load(), linger: linger})
	j.run(false, linger)
	if linger {
		spin(func() bool { return j.left.Load() == 0 })
	}
	// Returns at once after a spin that saw zero; parks a closure's caller,
	// and a query job's whose spin gave up.
	j.wg.Wait()
	// Retire: invalidate the job for any helper still queued or racing in,
	// and wait out those already past the generation check — their claim
	// loops find the cursor exhausted, so this is a few yields at most.
	j.gen.Add(1)
	for j.entered.Load() != 0 {
		runtime.Gosched()
	}
	j.tasks, j.n = nil, 0
	j.cursor.Store(0)
	taskJobPool.Put(j)
}

// parallelFor splits [0, n) into one contiguous chunk per available worker
// and runs fn on each concurrently through the persistent pool. Used by
// Build for the embarrassingly parallel stages; results are identical to a
// sequential run.
func parallelFor(n int, fn func(lo, hi int)) {
	workers := min(maxWorkers(), n)
	if workers <= 1 {
		fn(0, n)
		return
	}
	grain := (n + workers - 1) / workers
	RunTasks((n+grain-1)/grain, taskFunc(func(c int) {
		fn(c*grain, min((c+1)*grain, n))
	}))
}

// RunBatch runs fn(i) for every i in [0, n) across the shared worker pool
// and returns when all calls complete. The calling goroutine participates,
// so RunBatch makes progress even when the pool is saturated, and calls
// issued from inside another batch cannot deadlock. It is the batch path of
// every facade (ExecuteBatch, the serving collector's): each member runs Run
// with workers == 1 while the batch fans out across cores. Build's per-item
// stages and the layout search's descents are batches too. Its helpers do not
// linger — the parallel section of one query is RunTasks over a query job.
func RunBatch(n int, fn func(i int)) { RunTasks(n, taskFunc(fn)) }

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

// morselScan is one parallel scan as RunTasks tasks, one per worker: the
// morsel list, its claim cursor, and the merge point. Pooled across queries
// with its morsel buffer.
type morselScan struct {
	t       *colstore.Table
	q       query.Query
	ctl     *query.Control // nil: unconditioned scan
	tomb    []uint64       // tombstone snapshot captured by the caller
	morsels []Span
	cursor  atomic.Int64
	mu      sync.Mutex
	agg     query.Mergeable
	st      query.Stats // merged scan counters
}

var morselScanPool = sync.Pool{New: func() any { return new(morselScan) }}

// RunTask implements Tasks: one worker's claim loop over the shared morsel
// list. The scanner and aggregator clone are acquired at the first claim, so
// a task that starts after the list drained allocates nothing and never
// touches s.q; the partial aggregate and stats fold into s under its lock
// once the loop ends. A stopped control (cancellation, a satisfied limit)
// ends the loop at the next claim.
func (s *morselScan) RunTask(_ int, helper bool) {
	var (
		w    spanWalker
		agg  query.Mergeable
		st   query.Stats
		done int64
	)
	for !s.ctl.Stopped() {
		i := int(s.cursor.Add(1)) - 1
		if i >= len(s.morsels) {
			break
		}
		if w.sc == nil {
			w.open(s.t, s.tomb, s.ctl)
			// Prefer a recycled clone (compatibility only reads immutable
			// config, so no lock); otherwise clone under the scan's lock —
			// another worker may be Merge-ing into s.agg right now, and a
			// user-supplied Mergeable is free to read state in CloneEmpty
			// that Merge mutates.
			if agg = query.GetClone(s.agg); agg == nil {
				s.mu.Lock()
				agg = s.agg.CloneEmpty()
				s.mu.Unlock()
			}
		}
		w.scan(s.q, s.morsels[i], agg, &st)
		done++
	}
	if w.sc != nil {
		w.close()
		s.mu.Lock()
		s.agg.Merge(agg)
		s.st.Add(st)
		s.mu.Unlock()
		query.PutClone(agg)
	}
	if helper {
		morselShare.helped.Add(done)
	}
}

// scanParallel runs spans on the morsel engine with workers > 1 workers,
// merging worker partials into agg and the scan counters into st. est is the
// exact row count of spans. It reports false, having done nothing, when the
// work does not split into more than one morsel.
func scanParallel(t *colstore.Table, tomb []uint64, ctl *query.Control, q query.Query, spans []Span, agg query.Mergeable, workers, est int, st *query.Stats) bool {
	s := morselScanPool.Get().(*morselScan)
	s.morsels = appendMorsels(s.morsels, spans, morselTarget(est, workers))
	n := len(s.morsels)
	if n > 1 {
		s.t, s.q, s.ctl, s.tomb, s.agg = t, q, ctl, tomb, agg
		morselShare.units.Add(int64(n))
		RunTasks(min(workers, n), s)
		st.Add(s.st)
	}
	*s = morselScan{morsels: s.morsels[:0]}
	morselScanPool.Put(s)
	return n > 1
}

// --- parallel refinement ---

// refineGrain is the number of ranges a task refines.
const refineGrain = 32

// refineTasks is one parallel refinement as RunTasks tasks: task i narrows
// ranges [i·refineGrain, (i+1)·refineGrain). Pooled, so a query that refines
// in parallel allocates nothing for it.
type refineTasks struct {
	f     *Flood
	q     query.Query
	spans []Span
}

var refineTasksPool = sync.Pool{New: func() any { return new(refineTasks) }}

// RunTask implements Tasks.
func (r *refineTasks) RunTask(i int, _ bool) {
	lo := i * refineGrain
	hi := min(lo+refineGrain, len(r.spans))
	r.f.refineRanges(r.q, r.spans[lo:hi])
}

// refineParallel narrows spans over the worker pool, refineGrain ranges at a
// time. Ranges are independent, so the result is the sequential loop's.
func (f *Flood) refineParallel(q query.Query, spans []Span) {
	r := refineTasksPool.Get().(*refineTasks)
	r.f, r.q, r.spans = f, q, spans
	RunTasks((len(spans)+refineGrain-1)/refineGrain, r)
	*r = refineTasks{}
	refineTasksPool.Put(r)
}

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
//
// A helper that has just run a query's own parallel section — a morsel scan,
// a parallel refinement, a sharded fan-out (RunTasks) — keeps polling the
// queue for spinWindow before it parks, so the next query of a closed loop
// finds it running instead of paying a parked goroutine's wake-up.
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

// poolTask is one queued helper: either a plain closure (the build paths and
// RunBatch) or a (job, generation) pair — the jobs of the query path, morsel
// scans, parallel refinement and RunTasks fan-outs, are recycled, so they
// submit by value instead of binding a fresh closure per query, and the
// generation lets a stale helper detect that its job has since been retired
// and reused (see jobFence).
type poolTask struct {
	fn  func()
	job fencedJob
	gen uint64
}

// fencedJob is a recycled job as a queued helper sees it: the fence to pass
// before touching it, and the claim loop to run once through (helper is true
// on a pool goroutine, false on the issuing one).
type fencedJob interface {
	fence() *jobFence
	run(helper bool)
}

// run runs the task and reports whether its helper should linger (poll): a
// query job is one query's parallel section and the next query's likely
// follows within spinWindow; a closure is a build stage or a batch, whose
// caller has no next query waiting on this helper.
func (t poolTask) run() bool {
	if t.fn != nil {
		t.fn()
		return false
	}
	f := t.job.fence()
	if f.enter(t.gen) {
		t.job.run(true)
	}
	f.leave()
	return true
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

// joinCount is a query job's count of units claimed but not yet finished:
// workers release what they claimed, the caller waits for zero. The wait
// spins before it parks. A caller that parks leaves its processor idle; the
// helper that releases the last unit then readies the caller onto the
// helper's own processor, and the helper — displaced — sits in the run queue
// until an idle thread wakes for it, the same 50 µs wake the lingering
// avoids: with a parking wait, helpers joined only 27% of the micro
// benchmark's morsel scans, 2.7 µs after the offer when they did.
type joinCount struct {
	left atomic.Int64
	wg   sync.WaitGroup
}

func (c *joinCount) add(n int) {
	c.left.Add(int64(n))
	c.wg.Add(n)
}

func (c *joinCount) done(n int) {
	c.left.Add(-int64(n))
	c.wg.Add(-n)
}

// wait returns once every unit is released. The WaitGroup is waited on even
// after the spin saw zero: a worker decrements left first, and the job may
// not be recycled before its WaitGroup has settled.
func (c *joinCount) wait() {
	spin(func() bool { return c.left.Load() == 0 })
	c.wg.Wait()
}

// Share counts the claimable units — morsels of a scan, tasks of a fan-out —
// that query jobs handed out and how many of them pool helpers ran rather
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
// scans and the tasks of RunTasks fan-outs, each with how many pool helpers
// ran. Benchmarks report the difference of two readings as helper_frac.
func HelperShare() (morsels, tasks Share) { return morselShare.load(), taskShare.load() }

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
// every facade (ExecuteBatch, the serving collector's): each member runs Run
// with workers == 1 while the batch fans out across cores. Its helpers do not
// linger — the parallel section of one query is RunTasks.
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
// claim cursor, and the merge point. join counts morsels, not helpers — a
// worker releases its claimed morsels only after folding its partial
// aggregate and stats into the job, so join.wait() implies the merge is done.
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
	join    joinCount
	mu      sync.Mutex
	agg     query.Mergeable
	st      query.Stats // merged scan counters
}

var morselJobPool = sync.Pool{New: func() any { return new(morselJob) }}

// retire shuts the fence, after which the job's fields may be rewritten and
// the job pooled. Called after join.wait.
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
func (j *morselJob) run(helper bool) {
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
			// drains (join.wait depends on it), but skip the scan work. The
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
	if helper {
		morselShare.helped.Add(int64(done))
	}
	j.join.done(done)
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
	j.join.add(len(j.morsels))
	morselShare.units.Add(int64(len(j.morsels)))
	helpers := workers - 1
	if helpers > len(j.morsels)-1 {
		helpers = len(j.morsels) - 1
	}
	execPool.offer(helpers, poolTask{job: j, gen: j.gen.Load()})
	j.run(false)
	j.join.wait()
	st.Add(j.st)
	j.retire()
	return true
}

// --- one query's fan-out of independent tasks ---

// Tasks is a query's parallel section as RunTasks sees it: n independent
// tasks, RunTask(i) running task i. Implementations are pooled by their
// owners, so a fan-out allocates nothing.
type Tasks interface {
	RunTask(i int)
}

// taskJob is the shared state of one RunTasks call: the tasks, a claim
// cursor over them, and a count of tasks still out. Pooled and fenced like
// morselJob.
type taskJob struct {
	jobFence
	tasks  Tasks
	n      int
	cursor atomic.Int64
	join   joinCount
}

var taskJobPool = sync.Pool{New: func() any { return new(taskJob) }}

// run is one worker's claim loop, on the issuing goroutine and on any pool
// helpers the job attracted.
func (j *taskJob) run(helper bool) {
	done := 0
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= j.n {
			break
		}
		j.tasks.RunTask(i)
		done++
	}
	if helper {
		taskShare.helped.Add(int64(done))
	}
	j.join.done(done)
}

// RunTasks runs ts.RunTask(i) for every i in [0, n) over the worker pool and
// the calling goroutine, returning when all have finished. It is for the
// parallel section of one query — a sharded fan-out, a parallel refinement —
// not for batches of queries (RunBatch): the job is pooled, so the call
// allocates nothing, and its helpers linger for the next query's.
func RunTasks(n int, ts Tasks) {
	if n <= 0 {
		return
	}
	j := taskJobPool.Get().(*taskJob)
	j.tasks, j.n = ts, n
	j.join.add(n)
	taskShare.units.Add(int64(n))
	execPool.offer(n-1, poolTask{job: j, gen: j.gen.Load()})
	j.run(false)
	j.join.wait()
	j.shut()
	j.tasks, j.n = nil, 0
	j.cursor.Store(0)
	taskJobPool.Put(j)
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
	cells []int32
}

var refineTasksPool = sync.Pool{New: func() any { return new(refineTasks) }}

// RunTask implements Tasks.
func (r *refineTasks) RunTask(i int) {
	lo := i * refineGrain
	hi := min(lo+refineGrain, len(r.spans))
	r.f.refineRanges(r.q, r.spans[lo:hi], r.cells[lo:hi])
}

// refineParallel narrows spans over the worker pool, refineGrain ranges at a
// time. Ranges are independent, so the result is the sequential loop's.
func (f *Flood) refineParallel(q query.Query, spans []Span, cells []int32) {
	r := refineTasksPool.Get().(*refineTasks)
	r.f, r.q, r.spans, r.cells = f, q, spans, cells
	RunTasks((len(spans)+refineGrain-1)/refineGrain, r)
	*r = refineTasks{}
	refineTasksPool.Put(r)
}

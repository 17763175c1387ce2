package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	flood "flood"
)

// errOverloaded reports that the collector's intake queue is full; the
// admission layer maps it to a shed (429) response.
var errOverloaded = errors.New("server: batch collector overloaded")

// batchExecutor is the slice of the index surface the collector drives;
// every Store satisfies it.
type batchExecutor interface {
	ExecuteBatchContext(ctx context.Context, queries []flood.Query, aggs []flood.Aggregator) ([]flood.Stats, error)
}

// aggJob is one aggregate query waiting to ride a batch. done is buffered so
// the executing goroutine never blocks on a handler that gave up waiting.
type aggJob struct {
	q        flood.Query
	agg      flood.Aggregator
	deadline time.Time // zero = none
	done     chan aggResult
}

// aggResult is the outcome delivered back to the submitting handler.
type aggResult struct {
	stats     flood.Stats
	err       error
	batchSize int
}

// collector is the micro-batching heart of the server: concurrent handlers
// submit single-rectangle aggregate queries, a gather loop groups them —
// waiting up to window for stragglers or until max queries accumulate — and
// each group executes as one ExecuteBatchContext call, which fans the batch
// out across the worker pool (inter-query parallelism) while each member
// runs its zero-allocation sequential scan. Under load this converts N
// concurrent HTTP requests into N/batch calls into the index, which is the
// paper's intended serving arrangement for high QPS.
//
// Deadlines: members whose per-request deadline already passed when the
// batch fires are answered ErrCanceled without scanning; the batch itself
// runs under the EARLIEST remaining member deadline, so one batch never
// outlives the strictest member (fate sharing — with the server's uniform
// request timeout, members differ by at most the gather window).
type collector struct {
	jobs     chan *aggJob
	window   time.Duration
	max      int
	idx      batchExecutor
	base     context.Context
	execs    sync.WaitGroup
	loopDone chan struct{}

	batches      atomic.Int64
	batchedJobs  atomic.Int64
	multiBatches atomic.Int64
	maxBatch     atomic.Int64
}

// newCollector starts the gather loop. base bounds every batch execution;
// cancel it only after close() returns.
func newCollector(idx batchExecutor, window time.Duration, max int, base context.Context) *collector {
	c := &collector{
		jobs:     make(chan *aggJob, 4*max),
		window:   window,
		max:      max,
		idx:      idx,
		base:     base,
		loopDone: make(chan struct{}),
	}
	go c.run()
	return c
}

// submit enqueues a job for the next batch; errOverloaded when the intake
// queue is full (the caller sheds rather than queueing unboundedly).
func (c *collector) submit(j *aggJob) error {
	select {
	case c.jobs <- j:
		return nil
	default:
		return errOverloaded
	}
}

// close flushes: no submits may follow. The gather loop drains every queued
// job into final batches, and close returns once all executions finished.
func (c *collector) close() {
	close(c.jobs)
	<-c.loopDone
	c.execs.Wait()
}

// netpollFloor is the shortest wait a Go timer keeps: an idle process sleeps
// in epoll_pwait, whose timeout is whole milliseconds, so a timer under 1 ms
// fires after about 1 ms and a longer one up to 1 ms late.
const netpollFloor = time.Millisecond

// sleepSlice bounds one precise sleep of the gather loop, and so how long a
// batch that filled during the sleep waits before it executes.
const sleepSlice = 50 * time.Microsecond

// run is the gather loop: take one job, collect more for up to window (or
// until the batch fills), then hand the batch to a fresh goroutine so
// gathering of the next batch overlaps execution of this one.
func (c *collector) run() {
	defer close(c.loopDone)
	for {
		j, ok := <-c.jobs
		if !ok {
			return
		}
		batch := c.gather(j)
		c.execs.Add(1)
		go c.execute(batch)
	}
}

// gather returns a batch of first and the jobs queued after it, once it holds
// max, the window since now has passed, or the intake closes. A Go timer
// would stretch a sub-millisecond window to the netpoll floor, so the
// window's last floor is waited out in precise sleeps of at most sleepSlice,
// draining the intake between them. Before that (a window longer than the
// floor) the loop blocks on the intake and a timer set one floor short, which
// fires by the deadline even when late.
func (c *collector) gather(first *aggJob) []*aggJob {
	batch := append(make([]*aggJob, 0, c.max), first)
	deadline := time.Now().Add(c.window)
	var early <-chan time.Time
	if c.window > netpollFloor {
		early = time.After(c.window - netpollFloor)
	}
	for len(batch) < c.max {
		if early != nil {
			select {
			case j, ok := <-c.jobs:
				if !ok {
					return batch
				}
				batch = append(batch, j)
			case <-early:
				early = nil
			}
			continue
		}
		select {
		case j, ok := <-c.jobs:
			if !ok {
				return batch
			}
			batch = append(batch, j)
			continue
		default:
		}
		left := time.Until(deadline)
		if left <= 0 {
			return batch
		}
		preciseSleep(min(left, sleepSlice))
	}
	return batch
}

// execute runs one gathered batch through ExecuteBatchContext and delivers
// per-member results.
func (c *collector) execute(batch []*aggJob) {
	defer c.execs.Done()
	now := time.Now()
	live := batch[:0]
	var earliest time.Time
	for _, j := range batch {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			j.done <- aggResult{err: flood.ErrCanceled}
			continue
		}
		live = append(live, j)
		if !j.deadline.IsZero() && (earliest.IsZero() || j.deadline.Before(earliest)) {
			earliest = j.deadline
		}
	}
	if len(live) == 0 {
		return
	}
	ctx := c.base
	if !earliest.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(c.base, earliest)
		defer cancel()
	}
	queries := make([]flood.Query, len(live))
	aggs := make([]flood.Aggregator, len(live))
	for i, j := range live {
		queries[i] = j.q
		aggs[i] = j.agg
	}
	stats, err := c.idx.ExecuteBatchContext(ctx, queries, aggs)

	c.batches.Add(1)
	c.batchedJobs.Add(int64(len(live)))
	if len(live) > 1 {
		c.multiBatches.Add(1)
	}
	for {
		cur := c.maxBatch.Load()
		if int64(len(live)) <= cur || c.maxBatch.CompareAndSwap(cur, int64(len(live))) {
			break
		}
	}
	for i, j := range live {
		j.done <- aggResult{stats: stats[i], err: err, batchSize: len(live)}
	}
}

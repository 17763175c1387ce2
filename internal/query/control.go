package query

import (
	"errors"
	"sync"
	"sync/atomic"

	"flood/internal/colstore"
)

// Sentinel errors reported by context-aware execution. Both mark a *partial*
// result: the Stats returned alongside them describe the work actually done
// (rows seen before the stop), and any aggregator or row collector holds the
// rows delivered up to that point.
var (
	// ErrCanceled is returned when execution stopped because the caller's
	// context was canceled or a deadline passed. Inspect ctx.Err() to
	// distinguish cancellation from deadline expiry.
	ErrCanceled = errors.New("query: execution canceled")
	// ErrLimitReached is returned when execution stopped because the row
	// limit was satisfied — for LIMIT queries this is the expected outcome,
	// and the Select paths translate it to success.
	ErrLimitReached = errors.New("query: row limit reached")
)

// Control states: running until a stop condition fires, then latched.
const (
	ctlRunning int32 = iota
	ctlCanceled
	ctlLimit
)

// Control is the per-query execution controller threaded through the scan
// path. It carries the caller's cancellation signal (a context's Done
// channel, closed on cancellation or at its deadline) and the remaining LIMIT
// budget, shared by every worker of one execution: the sequential scan
// kernel polls it at block-group boundaries, the morsel engine at
// morsel-claim boundaries, and
// the scanner's delivery loop draws match budget from it so a satisfied
// LIMIT stops the scan instead of materializing the full result.
//
// A Control is safe for concurrent use (all mutable state is atomic) and all
// methods are nil-receiver safe, so unconditioned paths can pass a nil
// Control at zero cost. Obtain one with GetControl and return it with
// Release once no scanner references it.
type Control struct {
	done    <-chan struct{}
	limited bool
	limit   atomic.Int64
	state   atomic.Int32
}

var controlPool = sync.Pool{New: func() any { return new(Control) }}

// GetControl returns a pooled Control watching done (a context's Done
// channel, which also closes at the context's deadline; nil means not
// cancelable) and enforcing limit matched rows (limit <= 0 means unlimited).
// When neither is active it returns nil — the universal "no control" value
// every consumer accepts — so unconditioned executions pay nothing.
func GetControl(done <-chan struct{}, limit int) *Control {
	if done == nil && limit <= 0 {
		return nil
	}
	c := controlPool.Get().(*Control)
	c.done = done
	c.limited = limit > 0
	c.limit.Store(int64(limit))
	c.state.Store(ctlRunning)
	return c
}

// Release returns the control to the pool. The caller must ensure no scanner
// or worker still references it (execution has fully returned).
func (c *Control) Release() {
	if c == nil {
		return
	}
	c.done = nil
	controlPool.Put(c)
}

// Stopped reports whether a stop condition (cancellation, deadline, or an
// exhausted limit) has latched. It is one atomic load — cheap enough for
// per-block and per-morsel polling.
func (c *Control) Stopped() bool {
	return c != nil && c.state.Load() != ctlRunning
}

// Check polls the done channel, latching the canceled state when it has
// closed, and reports whether the control is stopped. It is the periodic poll
// the scan kernel runs every few blocks; limit exhaustion latches through
// Take instead.
func (c *Control) Check() bool {
	if c == nil {
		return false
	}
	if c.state.Load() != ctlRunning {
		return true
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.state.CompareAndSwap(ctlRunning, ctlCanceled)
			return true
		default:
		}
	}
	return false
}

// Take draws up to n rows from the remaining limit budget and returns how
// many the caller may deliver. Unlimited controls (and nil) grant everything.
// The draw is one atomic add, so concurrent workers never over-deliver in
// aggregate; the call that exhausts the budget latches the limit-reached
// state, stopping the scan.
func (c *Control) Take(n int) int {
	if c == nil || !c.limited {
		return n
	}
	if n <= 0 {
		return 0
	}
	rem := c.limit.Add(-int64(n))
	if rem > 0 {
		return n
	}
	c.state.CompareAndSwap(ctlRunning, ctlLimit)
	granted := n + int(rem)
	if granted < 0 {
		granted = 0
	}
	return granted
}

// Finish runs one final cancellation poll and returns Err. Entry points
// call it when execution returns so the outcome is deterministic: a context
// canceled (or deadline passed) at any point before the call returns
// reports ErrCanceled even when every scan happened to complete between
// polls — without it, a cancel landing in the last few blocks of a short
// scan would be reported or swallowed depending on poll timing.
func (c *Control) Finish() error {
	c.Check()
	return c.Err()
}

// Err maps the latched stop condition to its sentinel: ErrCanceled,
// ErrLimitReached, or nil while running. Partial Stats accompany either
// sentinel.
func (c *Control) Err() error {
	if c == nil {
		return nil
	}
	switch c.state.Load() {
	case ctlCanceled:
		return ErrCanceled
	case ctlLimit:
		return ErrLimitReached
	default:
		return nil
	}
}

// ControlledAggregator wraps agg so every delivery draws from ctl's budget
// and stops once the control latches: the enforcement fallback for indexes
// that implement Index but not ControlIndex, where the scan itself cannot
// be stopped but the "at most Limit rows delivered" contract must still
// hold. With a nil control it returns agg unchanged.
func ControlledAggregator(ctl *Control, agg Aggregator) Aggregator {
	if ctl == nil {
		return agg
	}
	return &controlledAggregator{agg: agg, ctl: ctl}
}

type controlledAggregator struct {
	agg Aggregator
	ctl *Control
}

// Reset implements Aggregator.
func (c *controlledAggregator) Reset() { c.agg.Reset() }

// AddBlock implements Aggregator, truncating the block's survivors to the
// budget.
func (c *controlledAggregator) AddBlock(t *colstore.Table, b int, sel *colstore.BlockBitmap) {
	if c.ctl.Stopped() {
		return
	}
	nsel := sel.Count()
	take := c.ctl.Take(nsel)
	if take == 0 {
		return
	}
	if take < nsel {
		kept := *sel
		keepFirst(&kept, take)
		sel = &kept
	}
	c.agg.AddBlock(t, b, sel)
}

// AddExactRange implements Aggregator, truncating the run to the budget.
func (c *controlledAggregator) AddExactRange(t *colstore.Table, start, end int) {
	if c.ctl.Stopped() {
		return
	}
	if n := c.ctl.Take(end - start); n > 0 {
		c.agg.AddExactRange(t, start, start+n)
	}
}

// Result implements Aggregator.
func (c *controlledAggregator) Result() int64 { return c.agg.Result() }

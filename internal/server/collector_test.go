package server

import (
	"context"
	"slices"
	"testing"
	"time"

	flood "flood"
)

// dispatchClock is a batchExecutor that reports when each batch reached it.
type dispatchClock chan time.Time

func (d dispatchClock) ExecuteBatchContext(_ context.Context, queries []flood.Query, _ []flood.Aggregator) ([]flood.Stats, error) {
	d <- time.Now()
	return make([]flood.Stats, len(queries)), nil
}

// submitJobs submits n jobs to c and returns them with the time of the first
// submit.
func submitJobs(t *testing.T, c *collector, n int) ([]*aggJob, time.Time) {
	t.Helper()
	jobs := make([]*aggJob, n)
	start := time.Now()
	for i := range jobs {
		jobs[i] = &aggJob{done: make(chan aggResult, 1)}
		if err := c.submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return jobs, start
}

// TestBatchCollectorHonoursWindow holds a lone job's submit-to-dispatch time
// to the default gather window: never shorter than the window, and in the
// median well under the 1 ms a Go timer takes to fire for a sub-millisecond
// wait (which is what the gather loop measured while it waited on one).
func TestBatchCollectorHonoursWindow(t *testing.T) {
	cfg := (*Config)(nil).withDefaults()
	clock := make(dispatchClock, 1)
	c := newCollector(clock, cfg.BatchWindow, cfg.BatchMax, context.Background())
	defer c.close()
	waits := make([]time.Duration, 51)
	for i := range waits {
		jobs, start := submitJobs(t, c, 1)
		waits[i] = (<-clock).Sub(start)
		if r := <-jobs[0].done; r.err != nil || r.batchSize != 1 {
			t.Fatalf("lone job: %+v", r)
		}
	}
	slices.Sort(waits)
	if waits[0] < cfg.BatchWindow {
		t.Fatalf("a lone job dispatched after %v, inside the %v window", waits[0], cfg.BatchWindow)
	}
	p50 := waits[len(waits)/2]
	t.Logf("submit to dispatch over %d lone jobs: min %v, p50 %v, max %v", len(waits), waits[0], p50, waits[len(waits)-1])
	if !raceEnabled && p50 > 700*time.Microsecond {
		t.Fatalf("median submit to dispatch %v for a %v window, want under 700µs", p50, cfg.BatchWindow)
	}
}

// TestBatchCollectorFullBatchSkipsWindow pins BatchMax: a batch that fills
// executes at once, not when a long window ends.
func TestBatchCollectorFullBatchSkipsWindow(t *testing.T) {
	const window = time.Second
	clock := make(dispatchClock, 1)
	c := newCollector(clock, window, 4, context.Background())
	defer c.close()
	jobs, start := submitJobs(t, c, 4)
	if d := (<-clock).Sub(start); d > window/10 {
		t.Fatalf("a full batch of 4 dispatched after %v of a %v window", d, window)
	}
	for _, j := range jobs {
		if r := <-j.done; r.err != nil || r.batchSize != 4 {
			t.Fatalf("full batch member: %+v, want batch size 4", r)
		}
	}
}

// TestBatchCollectorCloseFlushes pins close: jobs still gathering run at
// once, without waiting out the window, and close returns after they ran.
func TestBatchCollectorCloseFlushes(t *testing.T) {
	const window = time.Second
	clock := make(dispatchClock, 1)
	c := newCollector(clock, window, 4, context.Background())
	jobs, start := submitJobs(t, c, 2)
	c.close()
	if d := time.Since(start); d > window/10 {
		t.Fatalf("close took %v of a %v window", d, window)
	}
	for _, j := range jobs {
		select {
		case r := <-j.done:
			if r.err != nil || r.batchSize != 2 {
				t.Fatalf("flushed job: %+v, want batch size 2", r)
			}
		default:
			t.Fatal("close returned before a queued job was answered")
		}
	}
}

// TestBatchCollectorOverload pins submit's non-blocking contract without
// the gather loop draining the intake queue.
func TestBatchCollectorOverload(t *testing.T) {
	c := &collector{jobs: make(chan *aggJob, 1)}
	if err := c.submit(&aggJob{}); err != nil {
		t.Fatal(err)
	}
	if err := c.submit(&aggJob{}); err != errOverloaded {
		t.Fatalf("second submit = %v, want errOverloaded", err)
	}
}

package main

import (
	"runtime"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// latencies holds one class of operation latencies in nanoseconds, of
// reference time (hostclock.go) for in-process operations and of wall time
// for HTTP round trips, split by measurement window.
type latencies struct {
	windows [][]int64
	// rates is each window's reference time over its wall time where the
	// class is in reference time, 0 elsewhere; it turns a window's median
	// back into the wall time a caller on this box saw.
	rates []float64
}

func newLatencies(windows int) *latencies {
	return &latencies{windows: make([][]int64, windows), rates: make([]float64, windows)}
}

func (l *latencies) add(window int, d time.Duration) {
	l.windows[window] = append(l.windows[window], int64(d))
}

func (l *latencies) pooled() []int64 {
	var all []int64
	for _, w := range l.windows {
		all = append(all, w...)
	}
	slices.Sort(all)
	return all
}

// runWindows is how many equal windows an untraced run's measured time is
// cut into; a traced run gives three quarters of them to its traced phase.
// The host's memory latency degrades in bursts of some seconds (a 64 MB
// pointer chase was measured to take 1.5 to 2.5 times as long for 5 to 10 s
// at a time, with the clock rate unchanged), so the gated numbers are medians
// over the windows: a burst shorter than half the run does not move them.
const runWindows = 16

// tailMinSamples is the smallest window a p99 is read from: it leaves ten
// samples beyond the percentile.
const tailMinSamples = 1000

// latencySummary is a latency class reduced to the reported numbers, in
// microseconds.
type latencySummary struct {
	p50    float64 // median over the windows of each window's median
	wall50 float64 // the same with each window's median in wall time; 0 when the class has no rates
	mean95 float64 // median over the windows of each window's mean of its fastest 95%
	p90    float64 // of the pooled samples
	p99    float64
	mean   float64 // of the pooled samples
	n      int
}

// summary reduces a latency class. The p99 is the median over windows of each
// window's p99 when every window holds tailMinSamples; otherwise it is the
// p99 of the pooled samples.
func (l *latencies) summary() latencySummary {
	all := l.pooled()
	s := latencySummary{
		p90:  quantile(all, 0.90) / 1e3,
		p99:  quantile(all, 0.99) / 1e3,
		mean: mean(all) / 1e3,
		n:    len(all),
	}
	var p50s, wall50s, mean95s, p99s []float64
	tails := true
	for i, w := range l.windows {
		if len(w) == 0 {
			continue
		}
		sorted := slices.Clone(w)
		slices.Sort(sorted)
		p50s = append(p50s, quantile(sorted, 0.50)/1e3)
		if l.rates[i] > 0 {
			wall50s = append(wall50s, quantile(sorted, 0.50)/1e3/l.rates[i])
		}
		mean95s = append(mean95s, mean(sorted[:len(sorted)-len(sorted)/20])/1e3)
		p99s = append(p99s, quantile(sorted, 0.99)/1e3)
		tails = tails && len(w) >= tailMinSamples
	}
	s.p50, s.wall50, s.mean95 = median(p50s), median(wall50s), median(mean95s)
	if tails && len(p99s) > 0 {
		s.p99 = median(p99s)
	}
	return s
}

// liveHeapMB is the heap still reachable after collection. Two cycles, so
// that what a sync.Pool held for a discarded instance is gone too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// loopResult is what one measured phase of a closed loop produced.
type loopResult struct {
	lat     *latencies
	ops     int64
	failed  int64
	elapsed time.Duration
	mallocs uint64
}

// closedLoop runs op from one goroutine, back to back, for warmup (discarded)
// and then windows equal slices of measure, both in wall time. op times the
// call into the system itself, in reference time, so checking the answer is
// outside the latency, and so is the clock's sample between operations; op
// returns false for a wrong answer. i counts operations from the start of the
// warm-up, during which measured is false.
func closedLoop(warmup, measure time.Duration, windows int, op func(i int, measured bool) (time.Duration, bool)) loopResult {
	i := 0
	for end := time.Now().Add(warmup); ; i++ {
		t := time.Now()
		if !t.Before(end) {
			break
		}
		clock.tick(t)
		op(i, false)
	}
	res := loopResult{lat: newLatencies(windows)}
	m0, start := mallocs(), now()
	for w := 0; w < windows; w++ {
		from := now()
		end := start.wall.Add(measure * time.Duration(w+1) / time.Duration(windows))
		for {
			t := time.Now()
			if !t.Before(end) {
				break
			}
			clock.tick(t)
			d, ok := op(i, true)
			res.lat.add(w, d)
			if !ok {
				res.failed++
			}
			res.ops++
			i++
		}
		to := now()
		res.lat.rates[w] = float64(to.Sub(from)) / float64(to.wall.Sub(from.wall))
	}
	res.elapsed = since(start)
	res.mallocs = mallocs() - m0
	return res
}

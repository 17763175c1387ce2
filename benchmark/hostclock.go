package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	flood "flood"
)

// The reference clock.
//
// The boxes this benchmark runs on give a few cores of a shared host, and how
// much work such a core does per second of the guest's clock changes all the
// time, by two things no benchmark controls. The core's frequency moves in
// steps of up to 30% that each last seconds (a dependent chain of shifts and
// xors, a fixed number of cycles, took 286, 325, 343, 364 and 381 us for the
// same count from one second to the next, and a 32 MB streaming sum and an
// L1-resident sum moved by the same factor at the same moments; the two cores
// of one guest move independently). And whatever the host runs on the other
// hardware thread of the same core takes issue slots and load ports away in
// episodes of under 0.1 ms, for 10% to over 50% of the time: code that loads
// from L1 and has independent work in flight then takes 1.5 to 2 times as
// long while the dependent chain does not notice. A run of some seconds sees
// a few of these states, so wall times of the same binary differ by 20% to
// 35% between runs and no median within a run removes that.
//
// Every in-process time the harness reports is therefore in reference time.
// A fixed kernel, four L1 loads and four independent register operations per
// iteration over a 16 KB buffer, which feels both effects about as much as
// the program's own loops do, is timed every few milliseconds; the ratio of
// what the kernel takes at the reference speed to what it took lately is the
// clock's rate, and the harness reads its instants from a clock that
// advances at that rate. At the reference speed (about 4.2 GHz with the
// neighbouring thread idle, the fastest state the box showed) reference time
// is wall time; in a slower state a wall microsecond counts as less.
//
// The kernel was chosen on one-second slices of olap_flat, lookup_sql and
// olap_sharded, 100 each, taken while the neighbour was busy: dividing a
// slice's median latency by the kernel's time took its coefficient of
// variation from 0.100, 0.116 and 0.130 to 0.073, 0.072 and 0.049, and the
// latency moved in proportion to the kernel (elasticity 1.1, 0.7, 1.0). The
// dependent chain left it at 0.096 to 0.121, eight register-only streams at
// 0.09 to 0.11 (they had halved it an hour earlier, when the frequency was
// what moved), loads alone over-corrected (elasticity 0.7 to 0.9). The
// program under test and the kernel are compiled by the same toolchain and
// the kernel never changes, so a change to the program moves its reference
// times in proportion. What sampling costs is one kernel of about 15 us every
// 2 ms, between operations. host.clock_rate reports the mean rate of a run.
const (
	spinReps = 16 // passes over spinBuf per sample
	// spinReferenceNS is what one sample takes at the reference speed.
	spinReferenceNS = 9_300
	spinEvery       = 2 * time.Millisecond
	// The rate follows the mean of the last spinWindow samples without the
	// slowest tenth: the neighbour's share of the core over the last eighth of
	// a second counts in proportion, a sample that was interrupted does not.
	spinWindow = 64
)

// spinBuf is the kernel's 16 KB of L1-resident input.
var spinBuf = func() []int64 {
	buf := make([]int64, 2048)
	for i := range buf {
		buf[i] = int64(i) * 7
	}
	return buf
}()

//go:noinline
func spin(buf []int64, reps int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var s0, s1, s2, s3 int64
	for r := 0; r < reps; r++ {
		for i := 0; i+3 < len(buf); i += 4 {
			s0 += buf[i]
			s1 += buf[i+1]
			s2 += buf[i+2]
			s3 += buf[i+3]
			a ^= a << 13
			b ^= b << 7
			c += c >> 3
			d += d >> 5
		}
	}
	return a + b + c + d + uint64(s0+s1+s2+s3)
}

// refClock publishes (wall, ref, rate): at wall nanoseconds after start the
// reference clock read ref nanoseconds and has advanced at rate since. The
// three are read together under a sequence lock, so reading allocates nothing
// and never waits for a sampler.
//
// The cores of one guest change speed independently, so a sample says most
// when it is taken on the core that does the measured work: a measuring
// goroutine calls tick between its operations and times the kernel itself
// when the last sample is spinEvery old. A background goroutine does the same
// for the spans no harness code runs inside (the constructors behind
// setup_s), from whichever core it is given.
type refClock struct {
	start time.Time
	seq   atomic.Uint64
	wall  atomic.Int64
	ref   atomic.Uint64 // float64 bits
	rate  atomic.Uint64 // float64 bits

	mu    sync.Mutex // held by the one sampler that is publishing
	ring  [spinWindow]float64
	n     int       // samples taken
	rates []float64 // every published rate since the last reset
}

var clock = startClock()

func startClock() *refClock {
	c := &refClock{start: time.Now(), rates: make([]float64, 0, 1<<16)}
	c.rate.Store(math.Float64bits(1))
	c.wall.Store(-int64(spinEvery)) // so that the first tick samples
	c.tick(c.start)
	// The sampler lives as long as the process: every run of the invocation
	// reads the same clock.
	go func() {
		for {
			time.Sleep(spinEvery)
			c.tick(time.Now())
		}
	}()
	return c
}

var spinSink uint64

// tick times the kernel on the calling goroutine's core and publishes the new
// rate, unless a sample younger than spinEvery exists.
func (c *refClock) tick(at time.Time) {
	if int64(at.Sub(c.start))-c.wall.Load() < int64(spinEvery) || !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	t0 := time.Now()
	spinSink += spin(spinBuf, spinReps)
	t1 := time.Now()
	c.ring[c.n%spinWindow] = float64(t1.Sub(t0))
	c.n++
	sorted := c.ring
	filled := sorted[:min(c.n, spinWindow)]
	slices.Sort(filled)
	filled = filled[:len(filled)-len(filled)/10]
	var sum float64
	for _, d := range filled {
		sum += d
	}
	rate := spinReferenceNS * float64(len(filled)) / sum

	wall0, ref0, rate0 := c.read()
	wall := int64(t1.Sub(c.start))
	c.seq.Add(1)
	c.wall.Store(wall)
	c.ref.Store(math.Float64bits(ref0 + rate0*float64(wall-wall0)))
	c.rate.Store(math.Float64bits(rate))
	c.seq.Add(1)
	c.rates = append(c.rates, rate)
}

func (c *refClock) read() (wall int64, ref, rate float64) {
	for {
		s := c.seq.Load()
		if s&1 == 0 {
			wall, ref, rate = c.wall.Load(), math.Float64frombits(c.ref.Load()), math.Float64frombits(c.rate.Load())
			if c.seq.Load() == s {
				return wall, ref, rate
			}
		}
		runtime.Gosched()
	}
}

// resetRates starts a new run's record of rates; rateSummary reduces it.
func (c *refClock) resetRates() {
	c.mu.Lock()
	c.rates = c.rates[:0]
	c.mu.Unlock()
}

func (c *refClock) rateSummary() (mean, lo, hi float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rates) == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, r := range c.rates {
		sum += r
	}
	return sum / float64(len(c.rates)), slices.Min(c.rates), slices.Max(c.rates)
}

// instant is a reading of both clocks. Differences are in reference time;
// wall orders events and feeds the trace.
type instant struct {
	wall time.Time
	ref  float64 // reference nanoseconds since the clock started
}

func now() instant {
	w := time.Now()
	wall, ref, rate := clock.read()
	return instant{w, ref + rate*float64(int64(w.Sub(clock.start))-wall)}
}

func (a instant) Sub(b instant) time.Duration { return time.Duration(a.ref - b.ref) }

func since(a instant) time.Duration { return now().Sub(a) }

// refStats converts the times of a Stats the engine just returned, which the
// program measured on the wall clock, at the rate of this moment.
func refStats(st flood.Stats) flood.Stats {
	_, _, rate := clock.read()
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * rate) }
	st.IndexTime, st.ProjectTime, st.RefineTime = scale(st.IndexTime), scale(st.ProjectTime), scale(st.RefineTime)
	st.ScanTime, st.Total = scale(st.ScanTime), scale(st.Total)
	return st
}

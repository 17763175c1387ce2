package flood

import (
	"sync"
	"time"
)

// driftWindow is the drift monitor's sliding window in queries.
const driftWindow = 64

// minRelearnQueries is the number of sampled queries a drift signal needs
// before it may start a relearn. Forced relearns require only one.
const minRelearnQueries = 32

// monitor implements the workload-shift detection sketched in §8 ("Shifting
// workloads"): it tracks query cost over a sliding window of driftWindow
// queries and signals when the current layout has drifted far enough from
// its expected performance that relearning is worthwhile. The reference cost
// is the cost model's prediction when there is one, otherwise the first full
// window observed. Each AdaptiveIndex generation owns one; the index owns
// the rest of the loop (sample the workload, relearn in the background, swap
// atomically).
//
// A monitor is safe for concurrent use: record may be called from many
// goroutines at once (the normal situation when queries are served through
// ExecuteBatch or from concurrent request handlers). The sliding window is
// guarded by a mutex, every record observes a consistent window, and at
// least one record in any window-sized burst that pushes the average over
// the threshold reports true.
type monitor struct {
	mu        sync.Mutex
	window    [driftWindow]time.Duration
	sum       time.Duration // running total of window (O(1) record)
	next      int
	filled    bool
	reference float64 // ns
	factor    float64
}

// newMonitor starts a window against the predicted cost reference (ns per
// query; 0 takes the first full window instead); record fires once the
// window's average query time exceeds factor times the reference.
func newMonitor(reference, factor float64) *monitor {
	return &monitor{reference: reference, factor: factor}
}

// record adds one query's stats and reports whether the layout should be
// relearned. It never fires before a full window has been observed.
func (m *monitor) record(st Stats) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sum += st.Total - m.window[m.next]
	m.window[m.next] = st.Total
	m.next++
	if m.next == driftWindow {
		m.next = 0
		if !m.filled {
			m.filled = true
			if m.reference == 0 {
				m.reference = m.windowAvg()
				return false
			}
		}
	}
	if !m.filled || m.reference == 0 {
		return false
	}
	return m.windowAvg() > m.factor*m.reference
}

// state returns the reference cost (0 until established) and the current
// window's average query time (only meaningful once a full window has been
// recorded), both in nanoseconds per query.
func (m *monitor) state() (reference, windowAvg float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reference, m.windowAvg()
}

func (m *monitor) windowAvg() float64 {
	return float64(m.sum.Nanoseconds()) / driftWindow
}

package workload

import (
	"math/rand"
	"sync"

	"flood/internal/query"
)

// Reservoir maintains a fixed-size uniform random sample of an unbounded
// query stream using Vitter's Algorithm R. It is the workload-snapshot side
// of the adaptive lifecycle (§8, "Shifting workloads"): a serving facade
// feeds it every live query, and a relearn trains the next layout on
// Snapshot's output — a statistically representative picture of the recent
// workload at O(size) memory, no matter how many queries were served.
//
// A Reservoir is safe for concurrent use; Add is a single short critical
// section suitable for query hot paths.
type Reservoir struct {
	mu    sync.Mutex
	rng   *rand.Rand
	items []query.Query
	size  int
	seen  int64
}

// NewReservoir returns a reservoir keeping a uniform sample of up to size
// queries. Seed fixes the sampling sequence for reproducible tests.
func NewReservoir(size int, seed int64) *Reservoir {
	if size < 1 {
		size = 1
	}
	return &Reservoir{
		rng:   rand.New(rand.NewSource(seed)),
		items: make([]query.Query, 0, size),
		size:  size,
	}
}

// Add offers one query to the sample. The first size queries are kept;
// afterwards each new query replaces a random resident with probability
// size/seen, preserving uniformity over the whole stream. Retained queries
// are deep-copied: callers may pass queries whose Ranges live in reused
// scratch (the pooled disjunction arena does exactly that), so holding the
// caller's slice would corrupt the sample once the scratch is recycled.
func (r *Reservoir) Add(q query.Query) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if len(r.items) < r.size {
		r.items = append(r.items, cloneQuery(q))
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.size) {
		// Reuse the evicted resident's Range storage when it fits: once the
		// reservoir is full, sampling on the query hot path stays
		// allocation-free (Snapshot deep-copies, so nothing aliases the
		// recycled slots).
		if dst := r.items[j].Ranges; cap(dst) >= len(q.Ranges) {
			dst = dst[:len(q.Ranges)]
			copy(dst, q.Ranges)
			r.items[j] = query.Query{Ranges: dst}
			return
		}
		r.items[j] = cloneQuery(q)
	}
}

// cloneQuery gives q private Range storage.
func cloneQuery(q query.Query) query.Query {
	return query.Query{Ranges: append([]query.Range(nil), q.Ranges...)}
}

// Len returns the number of queries currently resident (at most size).
func (r *Reservoir) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// Snapshot returns a deep copy of the current sample, safe to use while
// Adds continue (replacement writes into recycled Range storage, so a
// shallow copy would see later mutations).
func (r *Reservoir) Snapshot() []query.Query {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]query.Query, len(r.items))
	for i, q := range r.items {
		out[i] = cloneQuery(q)
	}
	return out
}

// Reset empties the sample so it can start tracking a new workload era
// (called after a relearn swaps a fresh layout in).
func (r *Reservoir) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items = r.items[:0]
	r.seen = 0
}

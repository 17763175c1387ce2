package query

import "sync"

// Mergeable is implemented by aggregators whose partial results can be
// combined, enabling the parallel scan execution sketched in §8
// ("Concurrency and parallelism"): each worker accumulates into its own
// clone and the clones merge at the end.
type Mergeable interface {
	Aggregator
	// CloneEmpty returns a fresh aggregator of the same kind and target.
	CloneEmpty() Mergeable
	// Merge folds another clone's partial result into this one.
	Merge(other Mergeable)
}

// CloneEmpty implements Mergeable.
func (c *Count) CloneEmpty() Mergeable { return NewCount() }

// Merge implements Mergeable.
func (c *Count) Merge(other Mergeable) { c.n += other.(*Count).n }

// CloneEmpty implements Mergeable.
func (s *Sum) CloneEmpty() Mergeable { return NewSum(s.col) }

// Merge implements Mergeable.
func (s *Sum) Merge(other Mergeable) { s.s += other.(*Sum).s }

// CloneEmpty implements Mergeable.
func (m *Min) CloneEmpty() Mergeable { return NewMin(m.col) }

// Merge implements Mergeable.
func (m *Min) Merge(other Mergeable) {
	o := other.(*Min)
	if o.any && o.m < m.m {
		m.m = o.m
	}
	m.any = m.any || o.any
}

// CloneEmpty implements Mergeable.
func (m *Max) CloneEmpty() Mergeable { return NewMax(m.col) }

// Merge implements Mergeable.
func (m *Max) Merge(other Mergeable) {
	o := other.(*Max)
	if o.any && o.m > m.m {
		m.m = o.m
	}
	m.any = m.any || o.any
}

// Worker-clone recycling. The morsel engine needs one clone per worker per
// query; pooling them is what keeps the parallel execute path at zero
// steady-state allocations. There is one pool per built-in aggregator kind,
// so a caller that alternates kinds (COUNT, then SUM, then MAX) finds a clone
// of the right kind every time; a pooled clone is retargeted to the
// prototype's column on the way out. Unknown (user-supplied) Mergeable
// implementations are never pooled and always clone fresh.

var clonePools [5]sync.Pool

// cloneKind returns the pool index of a built-in aggregator, or -1.
func cloneKind(m Mergeable) int {
	switch m.(type) {
	case *Count:
		return 0
	case *Sum:
		return 1
	case *Min:
		return 2
	case *Max:
		return 3
	case *RowCollector:
		return 4
	}
	return -1
}

// GetClone returns a reset pooled clone of proto's kind and target column, or
// nil when none is available (the caller falls back to proto.CloneEmpty).
// It reads only proto's immutable configuration, so it is safe while other
// workers merge into proto.
func GetClone(proto Mergeable) Mergeable {
	kind := cloneKind(proto)
	if kind < 0 {
		return nil
	}
	c, _ := clonePools[kind].Get().(Mergeable)
	if c == nil {
		return nil
	}
	switch p := proto.(type) {
	case *Sum:
		c.(*Sum).col = p.col
	case *Min:
		c.(*Min).col = p.col
	case *Max:
		c.(*Max).col = p.col
	}
	c.Reset()
	return c
}

// PutClone recycles a worker clone after its partial result has been merged.
// The caller must not use c afterwards.
func PutClone(c Mergeable) {
	if kind := cloneKind(c); kind >= 0 {
		clonePools[kind].Put(c)
	}
}

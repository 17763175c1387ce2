package query

import "sync"

// Disjunction support (§3): "Typical selections generally also include
// disjunctions (i.e. OR clauses). However, these can be decomposed into
// multiple queries over disjoint attribute ranges." This file implements
// that decomposition: an OR of conjunctive hyper-rectangles becomes a list
// of pairwise-disjoint rectangles covering the same point set, so running
// each against an index and summing aggregates never double-counts.

// intersects reports whether two queries' hyper-rectangles overlap.
func intersects(a, b Query) bool {
	for d := range a.Ranges {
		ra, rb := a.Ranges[d], b.Ranges[d]
		if ra.Max < rb.Min || rb.Max < ra.Min {
			return false
		}
	}
	return true
}

// subtractAppend appends a \ b to dst as disjoint rectangles. a and b must
// have the same dimensionality; clone supplies fresh Range storage (heap or
// pooled arena). a's ranges are clobbered in the process, so callers pass
// pieces they own.
func subtractAppend(dst []Query, a, b Query, clone func(Query) Query) []Query {
	if a.Empty() {
		return dst
	}
	if !intersects(a, b) {
		return append(dst, a)
	}
	rem := a
	for d := range a.Ranges {
		ra, rb := rem.Ranges[d], b.Ranges[d]
		// Piece below b along dim d.
		if ra.Min < rb.Min {
			piece := clone(rem)
			piece.Ranges[d] = normRange(ra.Min, rb.Min-1)
			dst = append(dst, piece)
			ra.Min = rb.Min
		}
		// Piece above b along dim d.
		if ra.Max > rb.Max {
			piece := clone(rem)
			piece.Ranges[d] = normRange(rb.Max+1, ra.Max)
			dst = append(dst, piece)
			ra.Max = rb.Max
		}
		rem.Ranges[d] = normRange(ra.Min, ra.Max)
	}
	// rem is now fully inside b: dropped.
	return dst
}

func cloneQuery(q Query) Query {
	return Query{Ranges: append([]Range(nil), q.Ranges...)}
}

// normRange builds a range, clearing the Present flag when it spans the
// whole domain (so unfiltered dimensions stay cheap to execute).
func normRange(min, max int64) Range {
	return Range{Min: min, Max: max, Present: min != NegInf || max != PosInf}
}

// Disjoint decomposes a union of hyper-rectangles into pairwise-disjoint
// rectangles with the same union. Empty inputs are dropped. The output size
// is bounded by O(len(queries)^2 * d) rectangles in the worst case; typical
// OR clauses over distinct value ranges produce no growth at all.
func Disjoint(queries []Query) []Query {
	var d Decomposition
	return disjointWith(&d, queries, cloneQuery)
}

// disjointWith is the decomposition shared by the public Disjoint and the
// pooled Decompose; clone supplies Range storage for every emitted piece and
// d supplies the working rectangle lists.
func disjointWith(d *Decomposition, queries []Query, clone func(Query) Query) []Query {
	out := d.Pieces[:0]
	pending, next := d.pending[:0], d.next[:0]
	for _, q := range queries {
		if q.Empty() {
			continue
		}
		pending = append(pending[:0], clone(q))
		for _, existing := range out {
			next = next[:0]
			for _, p := range pending {
				next = subtractAppend(next, p, existing, clone)
			}
			pending, next = next, pending
			if len(pending) == 0 {
				break
			}
		}
		out = append(out, pending...)
	}
	d.Pieces, d.pending, d.next = out, pending, next
	return out
}

// Decomposition is a pooled disjoint decomposition of one disjunction: the
// rectangle lists built while decomposing and the Range arena backing each
// piece are recycled, so repeated disjunctions decompose without allocating.
// Pieces alias the arena and are valid until Release.
type Decomposition struct {
	// Pieces are the pairwise-disjoint rectangles covering the union.
	Pieces  []Query
	pending []Query
	next    []Query
	arena   []Range
}

var decompositionPool = sync.Pool{New: func() any { return new(Decomposition) }}

// Decompose is Disjoint on pooled storage: the execution paths run each of
// the returned Pieces against an index and sum the aggregates, so every row
// of the union is accumulated exactly once. Call Release once no execution
// references the pieces.
func Decompose(queries []Query) *Decomposition {
	d := decompositionPool.Get().(*Decomposition)
	disjointWith(d, queries, d.clone)
	return d
}

// clone copies q's ranges into the arena. When the arena runs out a fresh,
// larger one is started; slices already handed out keep the old backing
// array alive, so they stay valid.
func (d *Decomposition) clone(q Query) Query {
	n := len(q.Ranges)
	if len(d.arena)+n > cap(d.arena) {
		c := 2 * cap(d.arena)
		if c < 16*n {
			c = 16 * n
		}
		d.arena = make([]Range, 0, c)
	}
	lo := len(d.arena)
	d.arena = append(d.arena, q.Ranges...)
	return Query{Ranges: d.arena[lo : lo+n : lo+n]}
}

// Release returns the decomposition's storage to the pool.
func (d *Decomposition) Release() {
	d.Pieces = d.Pieces[:0]
	d.pending = d.pending[:0]
	d.next = d.next[:0]
	d.arena = d.arena[:0]
	decompositionPool.Put(d)
}

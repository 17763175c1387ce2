package query

import (
	"math"
	"sync"
)

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

// normRange builds a range, clearing the Present flag when it spans the
// whole domain (so unfiltered dimensions stay cheap to execute).
func normRange(min, max int64) Range {
	return Range{Min: min, Max: max, Present: min != NegInf || max != PosInf}
}

// decompose sets d.Pieces to pairwise-disjoint rectangles with the union of
// queries, dropping empty inputs. It gives up, reporting false, once it has
// cut more than maxPieces pieces or compared more than maxPairs pairs of
// rectangles; a piece that a later rectangle cuts again counts each time,
// as it takes arena space each time. Typical OR clauses over distinct value
// ranges cut no more pieces than they have rectangles, but n slabs crossing
// in k dimensions cut about (n/k)^k, each new rectangle compared with every
// piece so far.
func (d *Decomposition) decompose(queries []Query, maxPieces, maxPairs int) bool {
	out := d.Pieces[:0]
	pending, next := d.pending[:0], d.next[:0]
	d.cut = 0
	pairs := 0
	ok := true
outer:
	for _, q := range queries {
		if q.Empty() {
			continue
		}
		pending = append(pending[:0], d.clone(q))
		for _, existing := range out {
			if pairs += len(pending); pairs > maxPairs || d.cut > maxPieces {
				ok = false
				break outer
			}
			next = next[:0]
			for _, p := range pending {
				next = subtractAppend(next, p, existing, d.clone)
			}
			pending, next = next, pending
			if len(pending) == 0 {
				break
			}
		}
		out = append(out, pending...)
	}
	d.Pieces, d.pending, d.next = out, pending, next
	return ok && d.cut <= maxPieces
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
	cut     int // pieces cloned into the arena by this decomposition
}

var decompositionPool = sync.Pool{New: func() any { return new(Decomposition) }}

// Decompose cuts the union of queries into pairwise-disjoint Pieces, on
// pooled storage: the execution paths run each piece against an index and
// sum the aggregates, so every row of the union is accumulated exactly once.
// Call Release once no execution references the pieces.
func Decompose(queries []Query) *Decomposition {
	d := decompositionPool.Get().(*Decomposition)
	d.decompose(queries, math.MaxInt, math.MaxInt)
	return d
}

// Decomposable reports whether Decompose(queries) cuts at most maxPieces
// pieces and compares at most maxPairs pairs of rectangles on the way. It
// stops as soon as either bound is passed, so refusing a disjunction whose
// decomposition would take gigabytes costs what the bounds allow and no
// more.
func Decomposable(queries []Query, maxPieces, maxPairs int) bool {
	d := decompositionPool.Get().(*Decomposition)
	ok := d.decompose(queries, maxPieces, maxPairs)
	d.Release()
	return ok
}

// clone copies q's ranges into the arena. When the arena runs out a fresh,
// larger one is started; slices already handed out keep the old backing
// array alive, so they stay valid.
func (d *Decomposition) clone(q Query) Query {
	d.cut++
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

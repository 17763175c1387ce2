package query

import (
	"math/bits"
	"sync"

	"flood/internal/colstore"
)

// Scanner executes the scan-and-filter phase shared by every index. It scans
// physical row ranges of a table block-at-a-time, decoding only the columns
// present in the query filter (§7.2: "only the columns present in the query
// filter are accessed"), and feeds matching rows to the aggregator.
//
// Per block, the scanner first consults each filtered column's zone map
// (per-block min/max): blocks disjoint from a predicate are skipped without
// decoding, and predicates that contain a block's whole value range need no
// per-row check there. The remaining dimensions refine a word-packed
// selection bitmap (two uint64 words per 128-row block): a column with a
// bitmap index resolves its predicate as a precomputed-bitmap AND without
// touching the column data, every other column evaluates its range predicate
// branchlessly on the block's packed deltas into a 64-rows-per-word mask
// (colstore.Column.CompareBlock — nothing is decoded), and the masks AND
// together. The survivors of a block reach the aggregator in one call, as
// that bitmap (Aggregator.AddBlock), so COUNT is a popcount and SUM/MIN/MAX
// fold the packed deltas under the mask; a block that survives whole goes
// through AddExactRange, where SUM's prefix lookups apply. SetScalarKernel
// selects the selection-vector fallback kernel instead.
//
// All scratch lives inside the Scanner: a reused or pooled Scanner performs
// zero allocations in steady state.
//
// A Scanner is not safe for concurrent use.
type Scanner struct {
	t         *colstore.Table
	active    []int                  // scratch: dims compared row by row in the current block
	activeIdx []int                  // scratch: filterDims positions served by a bitmap index in the current block
	bitmaps   []colstore.BitmapRange // scratch: the span's bitmap ranges, by filterDims position
	ctl       *Control               // optional execution control (nil: unconditioned scan)
	ctlTick   int                    // blocks since the last cancellation poll
	scalar    bool                   // use the selection-vector fallback kernel
	tomb      []uint64               // word-packed tombstone bitmap (nil: no deletions)
	selw      colstore.BlockBitmap
	sel       [colstore.BlockSize]int32
	buf       [colstore.BlockSize]int64 // scalar kernel: the dimension being refined, decoded
}

// NewScanner returns a scanner over t.
func NewScanner(t *colstore.Table) *Scanner {
	s := &Scanner{}
	s.Reset(t)
	return s
}

// Reset points the scanner at t, so a long-lived Scanner can serve many
// tables and queries. The kernel choice resets to the build default (see
// SetScalarKernel).
func (s *Scanner) Reset(t *colstore.Table) {
	s.t = t
	s.scalar = defaultScalarKernel
	s.tomb = nil
}

// SetControl attaches an execution control: the scan loops poll it for
// cancellation every ctlCheckBlocks blocks and draw match-delivery budget
// from it, so a canceled context or a satisfied LIMIT stops the scan at the
// next boundary. A nil control (the default) scans unconditionally with no
// extra work in the per-row loops.
func (s *Scanner) SetControl(ctl *Control) { s.ctl = ctl }

// SetScalarKernel selects the portable selection-vector kernel (true) or the
// word-packed bitmap kernel (false) for this scanner's lifetime until the
// next Reset. The default is the bitmap kernel unless the build was tagged
// floodscalar. Both kernels deliver identical rows, stats, and LIMIT
// prefixes; the scalar kernel never consults bitmap indexes, which makes the
// pair the oracle for the cross-kernel equivalence tests.
func (s *Scanner) SetScalarKernel(on bool) { s.scalar = on }

// SetTombstones attaches a word-packed tombstone bitmap (bit row&63 of word
// row>>6 set = row deleted, see colstore.Tombstones): every scan entry point
// masks deleted rows out before delivery, at a cost of one AND-NOT per block
// word on the bitmap kernel. Rows at or beyond 64*len(words) are live, so a
// bitmap covering a prefix of the table (the table grew after the last
// delete) is valid. nil (the default) scans with zero masking overhead. The
// caller must not mutate words while the scanner uses them.
func (s *Scanner) SetTombstones(words []uint64) { s.tomb = words }

// ctlCheckBlocks is the cancellation poll cadence: the block loop runs a
// full Control.Check (a channel poll, tens of nanoseconds)
// once per this many blocks, i.e. once per ~1K rows — under 0.1ns of
// amortized overhead per scanned row, with a cancellation response bound of
// about one thousand rows.
const ctlCheckBlocks = 8

var scannerPool = sync.Pool{New: func() any { return &Scanner{} }}

// GetScanner returns a pooled scanner reset to t. Callers pass it back with
// Release once the query's scan phase is done; paired Get/Release keeps the
// steady-state query path allocation-free.
func GetScanner(t *colstore.Table) *Scanner {
	s := scannerPool.Get().(*Scanner)
	s.Reset(t)
	return s
}

// Release returns the scanner to the pool. The caller must not use s after.
// The table reference is dropped so a pooled scanner does not pin column
// data beyond the query that used it.
func (s *Scanner) Release() {
	s.t = nil
	clear(s.bitmaps[:cap(s.bitmaps)])
	s.ctl = nil
	s.ctlTick = 0
	s.tomb = nil
	scannerPool.Put(s)
}

// ScanRange scans rows [start, end), filter-checking the dims listed in
// filterDims against q, and returns (scanned, matched). filterDims must list
// only dims with q.Ranges[dim].Present. Matching rows go to agg. Rows inside
// blocks that a zone map proves disjoint from the predicate are pruned
// without being decoded and do not count as scanned.
//
// With a control attached (SetControl), the block loop additionally polls
// for cancellation every ctlCheckBlocks blocks and draws delivery budget
// from the control's limit before feeding survivors to the aggregator; a
// stop latched by either cuts the scan short, and rows never visited do not
// count as scanned.
func (s *Scanner) ScanRange(q Query, filterDims []int, start, end int, agg Aggregator) (scanned, matched int64) {
	if start >= end || s.ctl.Stopped() {
		return 0, 0
	}
	if len(filterDims) == 0 && s.tomb == nil {
		// Everything in the range matches: treat as exact. Poll
		// cancellation here — there is no block loop to do it — so a
		// canceled composite scan (a base index and its insert log, OR
		// pieces) latches and stops delivering between calls instead of
		// running every remaining range to completion.
		n := end - start
		if s.ctl != nil {
			if s.ctl.Check() {
				return 0, 0
			}
			n = s.ctl.Take(n)
			if n == 0 {
				return 0, 0
			}
		}
		agg.AddExactRange(s.t, start, start+n)
		return int64(n), int64(n)
	}
	for _, d := range filterDims {
		// An inverted range matches nothing. Checked up front because the
		// branchless block compares below assume Min <= Max (the unsigned
		// span would wrap to almost-always-true).
		if r := q.Ranges[d]; r.Min > r.Max {
			return 0, 0
		}
	}
	t := s.t
	if !s.scalar {
		// One range per bitmap-indexed predicate for the whole span; each
		// plans itself against a stripe's domain as the blocks reach it.
		if cap(s.bitmaps) < len(filterDims) {
			s.bitmaps = make([]colstore.BitmapRange, len(filterDims))
		}
		s.bitmaps = s.bitmaps[:len(filterDims)]
		for i, d := range filterDims {
			if bi := t.Bitmap(d); bi != nil {
				s.bitmaps[i] = bi.Range(q.Ranges[d].Min, q.Ranges[d].Max)
			}
		}
	}
	firstBlock := start / colstore.BlockSize
	lastBlock := (end - 1) / colstore.BlockSize
	for b := firstBlock; b <= lastBlock; b++ {
		if s.ctl != nil {
			// Amortized cancellation poll plus a cheap stop check (one
			// atomic load) so another worker's limit stop is seen promptly.
			if s.ctlTick++; s.ctlTick >= ctlCheckBlocks {
				s.ctlTick = 0
				if s.ctl.Check() {
					break
				}
			} else if s.ctl.Stopped() {
				break
			}
		}
		blockLo := b * colstore.BlockSize
		i0 := 0
		if blockLo < start {
			i0 = start - blockLo
		}
		i1 := end - blockLo
		if i1 > colstore.BlockSize {
			i1 = colstore.BlockSize
		}

		// Zone-map pass: prune or exact-accept per dimension; dims that
		// need row checks split into bitmap-indexed and compared sets (the
		// scalar kernel decodes everything).
		active, activeIdx := s.active[:0], s.activeIdx[:0]
		skip := false
		for i, d := range filterDims {
			bmin, bmax := t.Column(d).BlockBounds(b)
			r := q.Ranges[d]
			if bmin > r.Max || bmax < r.Min {
				skip = true
				break
			}
			if bmin >= r.Min && bmax <= r.Max {
				continue // whole block inside the predicate: no row checks
			}
			if !s.scalar && t.Bitmap(d) != nil {
				activeIdx = append(activeIdx, i)
			} else {
				active = append(active, d)
			}
		}
		s.active, s.activeIdx = active, activeIdx
		if skip {
			continue
		}
		if len(active) == 0 && len(activeIdx) == 0 && s.tomb == nil {
			n := i1 - i0
			if s.ctl != nil {
				n = s.ctl.Take(n)
			}
			if n > 0 {
				agg.AddExactRange(t, blockLo+i0, blockLo+i0+n)
				scanned += int64(n)
				matched += int64(n)
			}
			if s.ctl.Stopped() {
				break
			}
			continue
		}

		// Rows to check, or — every predicate accepted the block whole but
		// there are tombstones — dead rows to mask out.
		sel := &s.selw
		if s.scalar {
			s.selectScalar(q, b, i0, i1, sel)
		} else {
			s.selectBitmap(q, b, i0, i1, sel)
		}
		nsel, take := s.deliver(agg, b, sel)
		scanned += int64(i1 - i0)
		matched += int64(take)
		if take < nsel {
			// LIMIT pushdown: the budget ran out inside this block's
			// delivery, latching the stop that ends the scan.
			break
		}
	}
	return scanned, matched
}

// selectBitmap runs the word-packed kernel over one block: sel starts as
// all-ones over [i0, i1) minus the tombstoned rows, each bitmap-indexed dim
// ANDs in the rows its span's range selects, and each remaining dim ANDs a
// branchless compare mask over its packed block.
func (s *Scanner) selectBitmap(q Query, b, i0, i1 int, sel *colstore.BlockBitmap) {
	t := s.t
	selInit(sel, i0, i1)
	if s.tomb != nil {
		s.andNotTomb(sel, b)
	}
	for _, i := range s.activeIdx {
		s.bitmaps[i].AndBlock(sel, b)
	}
	for _, d := range s.active {
		if !selAny(sel) {
			break
		}
		r := q.Ranges[d]
		t.Column(d).CompareBlock(b, sel, uint64(r.Min), uint64(r.Max)-uint64(r.Min))
	}
}

// deliver hands the survivors of block b to agg in one call and returns how
// many there were and how many were delivered: a control's limit budget keeps
// only the first take of them. A block that survives whole goes through
// AddExactRange, so an aggregator's exact-range shortcut (SUM's prefix
// lookups) still applies to it.
func (s *Scanner) deliver(agg Aggregator, b int, sel *colstore.BlockBitmap) (nsel, take int) {
	nsel = sel.Count()
	if nsel == 0 {
		return 0, 0
	}
	take = nsel
	if s.ctl != nil {
		take = s.ctl.Take(nsel)
		if take == 0 {
			return nsel, 0
		}
		if take < nsel {
			keepFirst(sel, take)
		}
	}
	if take == colstore.BlockSize {
		agg.AddExactRange(s.t, b*colstore.BlockSize, (b+1)*colstore.BlockSize)
	} else {
		agg.AddBlock(s.t, b, sel)
	}
	return nsel, take
}

// keepFirst clears all but the lowest take set bits of sel.
func keepFirst(sel *colstore.BlockBitmap, take int) {
	for wi, w := range sel {
		if n := bits.OnesCount64(w); n <= take {
			take -= n
			continue
		}
		var kept uint64
		for ; take > 0; take-- {
			kept |= w & -w
			w &= w - 1
		}
		sel[wi] = kept
	}
}

// andNotTomb clears sel bits whose rows are tombstoned, one AND-NOT per block
// word. Tombstone words beyond the bitmap's coverage (rows appended after the
// last delete) are implicitly zero.
func (s *Scanner) andNotTomb(sel *colstore.BlockBitmap, b int) {
	base := b * colstore.BlockWords
	for wi := range sel {
		if base+wi < len(s.tomb) {
			sel[wi] &^= s.tomb[base+wi]
		}
	}
}

// selectScalar is the portable fallback kernel: the original
// selection-vector pipeline. It builds the vector from the block's live rows
// or the first undecided dimension, refines it in place with each remaining
// one, and sets the survivors' bits in sel. The membership test is
// branchless: v ∈ [Min, Max] becomes one unsigned compare
// (u64(v-Min) <= u64(Max-Min), wrap-safe for unbounded ranges), and the
// unconditional store + conditional increment compiles to a predicated
// instruction instead of a mispredicting branch.
func (s *Scanner) selectScalar(q Query, b, i0, i1 int, out *colstore.BlockBitmap) {
	t := s.t
	rest := s.active
	sel := s.sel[:]
	nsel := 0
	if s.tomb != nil {
		// Tombstone-masked build: seed the vector with the block's live rows
		// (one bit test each), then refine with every active dimension below.
		for i := i0; i < i1; i++ {
			row := b*colstore.BlockSize + i
			if wi := row >> 6; wi < len(s.tomb) && s.tomb[wi]>>uint(row&63)&1 == 1 {
				continue
			}
			sel[nsel] = int32(i)
			nsel++
		}
	} else {
		d0 := rest[0]
		buf := s.buf[:]
		t.Column(d0).DecodeBlock(b, buf)
		r := q.Ranges[d0]
		rmin, span := uint64(r.Min), uint64(r.Max)-uint64(r.Min)
		for i := i0; i < i1; i++ {
			sel[nsel] = int32(i)
			if uint64(buf[i])-rmin <= span {
				nsel++
			}
		}
		rest = rest[1:]
	}
	for _, d := range rest {
		if nsel == 0 {
			break
		}
		buf := s.buf[:]
		t.Column(d).DecodeBlock(b, buf)
		r := q.Ranges[d]
		rmin, span := uint64(r.Min), uint64(r.Max)-uint64(r.Min)
		k := 0
		for _, i := range sel[:nsel] {
			sel[k] = i
			if uint64(buf[i])-rmin <= span {
				k++
			}
		}
		nsel = k
	}
	*out = colstore.BlockBitmap{}
	for _, i := range sel[:nsel] {
		out[i>>6] |= 1 << uint(i&63)
	}
}

// selInit fills sel with ones over bit positions [i0, i1) and zeros
// elsewhere.
func selInit(sel *colstore.BlockBitmap, i0, i1 int) {
	for wi := range sel {
		base := wi * 64
		lo, hi := i0-base, i1-base
		if lo < 0 {
			lo = 0
		}
		if hi > 64 {
			hi = 64
		}
		if lo >= hi {
			sel[wi] = 0
			continue
		}
		w := ^uint64(0) << uint(lo)
		if hi < 64 {
			w &= (1 << uint(hi)) - 1
		}
		sel[wi] = w
	}
}

// selAny reports whether any bit of sel is set.
func selAny(sel *colstore.BlockBitmap) bool {
	var w uint64
	for _, v := range sel {
		w |= v
	}
	return w != 0
}

// ScanExactRange accumulates rows [start, end) that are all known to match
// (an exact sub-range, §7.1): no per-row filter checks are performed. With a
// control attached, the range is truncated to the remaining limit budget and
// skipped entirely once a stop has latched; the aggregator call itself is
// uninterruptible, so cancellation granularity on exact ranges is one range
// (one morsel, on the parallel path). Under tombstones the live rows are
// delivered block by block instead. It is ScanRange with no dimension left
// to check.
func (s *Scanner) ScanExactRange(start, end int, agg Aggregator) (scanned, matched int64) {
	return s.ScanRange(Query{}, nil, start, end, agg)
}

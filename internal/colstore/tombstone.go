package colstore

import "math/bits"

// Tombstones is a word-packed deletion bitmap over a table's physical rows:
// bit row&63 of word row>>6 set means the row is deleted and must not be
// delivered by any scan. A Tombstones value is immutable once published —
// mutation goes through AddTombstones, which copies — so readers that capture
// a pointer observe a stable snapshot of the deleted set for the whole scan
// while writers publish new versions behind an atomic pointer.
type Tombstones struct {
	words []uint64
	dead  int
	n     int // rows covered; bits at or beyond n are always zero
}

// AddTombstones returns a tombstone set covering n rows with every row listed
// in rows marked dead, in addition to everything already dead in t. t may be
// nil (no prior deletions) or cover fewer than n rows (the table grew); its
// words are copied, never aliased, so t remains valid for concurrent readers.
// Rows outside [0, n) are ignored; rows already dead do not recount. The
// second result is the number of rows newly marked dead.
func AddTombstones(t *Tombstones, n int, rows []int) (*Tombstones, int) {
	nt := &Tombstones{words: make([]uint64, (n+63)/64), n: n}
	if t != nil {
		copy(nt.words, t.words)
		nt.dead = t.dead
	}
	added := 0
	for _, row := range rows {
		if row < 0 || row >= n {
			continue
		}
		w, m := row>>6, uint64(1)<<uint(row&63)
		if nt.words[w]&m == 0 {
			nt.words[w] |= m
			added++
		}
	}
	nt.dead += added
	return nt, added
}

// TombstonesFromWords reconstructs a tombstone set from its word-packed
// serialized form (see Words). It validates the structural invariants —
// word-slice length matching ceil(n/64), no bits set at or beyond n — and
// returns ok=false when they do not hold, so a decoder can reject corrupted
// payloads instead of serving phantom deletions. The words slice is adopted,
// not copied.
func TombstonesFromWords(n int, words []uint64) (t *Tombstones, ok bool) {
	if n < 0 || len(words) != (n+63)/64 {
		return nil, false
	}
	if tail := n & 63; tail != 0 && len(words) > 0 {
		if words[len(words)-1]>>uint(tail) != 0 {
			return nil, false
		}
	}
	dead := 0
	for _, w := range words {
		dead += bits.OnesCount64(w)
	}
	return &Tombstones{words: words, dead: dead, n: n}, true
}

// Dead returns the number of deleted rows. Nil-safe.
func (t *Tombstones) Dead() int {
	if t == nil {
		return 0
	}
	return t.dead
}

// Len returns the number of rows the set covers. Nil-safe.
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Has reports whether row is deleted. Rows beyond the covered range are
// live. Nil-safe.
func (t *Tombstones) Has(row int) bool {
	if t == nil || row < 0 || row>>6 >= len(t.words) {
		return false
	}
	return t.words[row>>6]>>uint(row&63)&1 == 1
}

// Words exposes the packed bitmap for the scan kernel's AND-NOT fold and for
// serialization. It returns nil when nothing is dead — callers can hand the
// result straight to Scanner.SetTombstones and keep the unmasked fast paths —
// and the returned slice must be treated as read-only. Nil-safe.
func (t *Tombstones) Words() []uint64 {
	if t == nil || t.dead == 0 {
		return nil
	}
	return t.words
}

// Slice returns the tombstones restricted to rows [start*64, n) re-based at
// word boundary start, for scans over a word-aligned suffix of the covered
// rows (the insert log's partial block, encoded as a table of its own). The
// words are aliased, not copied, which is safe because t is immutable.
// Nil-safe; a start at or beyond the covered words returns nil.
func (t *Tombstones) Slice(start int) []uint64 {
	if t == nil || t.dead == 0 || start >= len(t.words) {
		return nil
	}
	return t.words[start:]
}

// Mutation API shared by every facade: tombstone deletes, delete-by-query,
// and update-as-delete-plus-insert. See docs/MUTATIONS.md for the design.
//
// Deletion is logical everywhere — a word-packed bitmap marks dead rows and
// the scan kernel masks them with one AND-NOT per block word — and physical
// compaction piggybacks on the rebuilds the insert path already performs
// (the adaptive relearn/merge cycle). Row identity follows Select's global id
// space: base rows tile first, side-log rows after them.

package flood

import (
	"encoding/binary"
	"fmt"

	"flood/internal/wire"
)

// Assignment sets one column to a literal value, as part of an Update. The
// value is in storage encoding: for typed schemas, encode floats and strings
// with the schema first (the floodsql layer does this from SQL literals).
type Assignment struct {
	// Col is the column index being assigned.
	Col int
	// Value is the new encoded value.
	Value int64
}

// Deleter is implemented by every index facade that supports tombstone
// deletion (Flood, AdaptiveIndex, ShardedIndex). Delete removes
// rows matching a conjunctive query; the returned count is the number of
// rows newly deleted.
type Deleter interface {
	Delete(q Query) (int64, error)
}

// Inserter is implemented by facades that accept new rows after build
// (AdaptiveIndex, ShardedIndex — not the immutable Flood). Insert
// appends one encoded row in physical column order; callers of floodsql's
// INSERT route through it.
type Inserter interface {
	Insert(row []int64) error
}

// Updater is implemented by facades that support in-place updates
// (AdaptiveIndex, ShardedIndex — not the immutable Flood, which
// has no insert path). Update rewrites every row matching q with the given
// assignments applied; it is executed as a tombstone delete plus re-insert
// of the modified copies.
type Updater interface {
	Update(q Query, set []Assignment) (int64, error)
}

// Delete tombstones every live row matching q and returns how many rows were
// newly deleted. The index's physical layout is untouched — deleted rows are
// masked out of every subsequent query (Execute, Select, aggregates)
// and compacted away on the next Rebuild. Queries already in flight keep the
// snapshot they captured at scan setup. Single-writer: serialize Delete
// calls with each other, not with readers.
func (f *Flood) Delete(q Query) (int64, error) { return f.apply(mutation{where: &q}) }

// DeleteRows tombstones rows by their Select ids (physical rows, for a plain
// Flood index) and returns how many were newly deleted. Ids already deleted
// or out of range are skipped.
func (f *Flood) DeleteRows(ids []int64) (int64, error) { return f.apply(mutation{ids: ids}) }

// apply implements engine: a built index has no insert path, so it takes
// predicate and id deletions and rejects everything that would append.
func (f *Flood) apply(m mutation) (int64, error) {
	if m.rewrite || len(m.rows) > 0 || m.tuples != nil {
		return 0, fmt.Errorf("flood: a built Flood index only deletes by predicate or id; wrap it in NewAdaptiveIndex for other mutations")
	}
	if m.where != nil {
		return int64(f.idx.DeleteWhere(*m.where)), nil
	}
	rows := make([]int, len(m.ids))
	for i, id := range m.ids {
		rows[i] = int(id)
	}
	return int64(f.idx.DeleteRows(rows)), nil
}

// Deleted returns the number of tombstoned (not yet compacted) rows.
func (f *Flood) Deleted() int { return f.idx.Deleted() }

// LiveRows returns the number of rows queries can observe: physical rows
// minus tombstoned rows.
func (f *Flood) LiveRows() int { return f.idx.LiveRows() }

// Rebuild returns a fresh index over f's live rows with the same layout:
// tombstoned rows are physically discarded and the new index starts with an
// empty tombstone set. f is not modified.
func (f *Flood) Rebuild() (*Flood, error) {
	idx, err := f.idx.RebuildCompact(nil, f.idx.Tombstones(), nil)
	if err != nil {
		return nil, err
	}
	return newFlood(idx, f.result, f.model, f.schema), nil
}

// rowValues materializes row r of cols columns as a value tuple, reading
// each value through get: a table's Get, or the insert log's.
func rowValues(get func(c, r int) int64, cols, r int) []int64 {
	row := make([]int64, cols)
	for c := range row {
		row[c] = get(c, r)
	}
	return row
}

// WAL record framing. Insert records predate deletion support and are raw
// little-endian rows — 8*NumCols bytes, no tag. Delete records are tagged:
//
//	walTagDelete (1 byte) | count (u32 LE) | count*NumCols values (8 bytes each)
//
// A delete record's length is ≡5 (mod 8) while an insert's is ≡0, so the
// two are unambiguous for any column count and old logs replay unchanged.
// Deletes log resolved row VALUES, never physical row ids: physical
// placement changes across rebuilds (checkpoint replay rebuilds the side
// log, compaction renumbers base rows), but "delete one live row equal to
// this tuple" replays identically against any equivalent state.
const walTagDelete = 0xD7

// encodeWAL serializes the one record m logs: its victim tuples as a tagged
// delete record when it names any, its single appended row otherwise.
func (m mutation) encodeWAL() []byte {
	rows, head := m.rows, 0
	if m.tuples != nil {
		rows, head = m.tuples, 5
	}
	size := head
	for _, row := range rows {
		size += 8 * len(row)
	}
	buf := make([]byte, head, size)
	if head > 0 {
		buf[0] = walTagDelete
		binary.LittleEndian.PutUint32(buf[1:5], uint32(len(rows)))
	}
	for _, row := range rows {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	return buf
}

// decodeWALRecord parses one WAL payload into the mutation it logged: a
// tagged delete record (never a multiple of 8 bytes, which an insert row
// always is) names its victims by value, anything else is one inserted row.
// The declared count and the row width are validated against the serving
// table's dimensionality.
func decodeWALRecord(payload []byte, cols int) (mutation, error) {
	n, body, tagged := 1, payload, false
	if len(payload) >= 5 && len(payload)%8 == 5 && payload[0] == walTagDelete {
		n, body, tagged = int(binary.LittleEndian.Uint32(payload[1:5])), payload[5:], true
	}
	if len(body) != 8*n*cols {
		return mutation{}, fmt.Errorf("flood: wal record of %d bytes for %d rows of a %d-column table: %w",
			len(payload), n, cols, wire.ErrChecksum)
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, cols)
		for c := range rows[i] {
			rows[i][c] = int64(binary.LittleEndian.Uint64(body[8*(i*cols+c):]))
		}
	}
	if tagged {
		return mutation{tuples: rows}, nil
	}
	return mutation{rows: rows}, nil
}

var (
	_ Deleter = (*Flood)(nil)
)

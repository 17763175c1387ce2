package flood

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/wal"
	"flood/internal/wire"
)

// SyncPolicy re-exports the WAL sync policies at the public API surface.
type SyncPolicy = wal.SyncPolicy

// The sync policies, ordered from most to least durable; see the internal
// wal package for exact guarantees.
const (
	// SyncAlways fsyncs before each Insert returns.
	SyncAlways = wal.SyncAlways
	// SyncEveryInterval fsyncs on a background timer.
	SyncEveryInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS until checkpoint or Close.
	SyncNever = wal.SyncNone
)

// Durable directory layout: one snapshot plus numbered WAL segments.
//
//	snapshot.flood   checksummed v2 snapshot; its "wmrk" section holds the
//	                 generation g whose segments it absorbs (all gens <= g)
//	wal-%06d.log     insert log segments; replay applies gens > g in order
const (
	snapshotFile = "snapshot.flood"
	// sectionLog persists the side-log rows a checkpoint captured beyond the
	// base index, so a checkpoint never pays a base rebuild: the log's sealed
	// table as it stands, then its partial block (sideLog.encoder).
	sectionLog = "logt"
	// sectionDelta is the side-log rows as raw int64 columns, which
	// snapshots written before sectionLog hold. It is read, never written.
	sectionDelta = "dlta"
	// sectionMarker persists the absorbed WAL generation.
	sectionMarker = "wmrk"
	// sectionTomb persists the deletion state: the base index's tombstone
	// words plus the dead rows of the captured side-log prefix. Unlike the
	// bitmap-index section, damage here is a hard load error, not a
	// degrade-and-rebuild: tombstones are not reconstructible from the data
	// sections, and silently dropping them would resurrect acknowledged
	// deletes.
	sectionTomb = "tomb"
)

// DurableOptions configures a durable store.
type DurableOptions struct {
	// Sync selects the WAL sync policy (default SyncAlways; SyncEveryInterval
	// fsyncs every 50 ms).
	Sync SyncPolicy
	// Adaptive tunes the wrapped AdaptiveIndex (nil picks its defaults).
	Adaptive *AdaptiveConfig
}

func (o *DurableOptions) orDefault() DurableOptions {
	if o == nil {
		return DurableOptions{}
	}
	return *o
}

// RecoveryReport describes what OpenDurable reconstructed.
type RecoveryReport struct {
	// Retrained and Warnings carry the snapshot's degraded-recovery report
	// (see LoadReport).
	Retrained bool
	Warnings  []string
	// SnapshotRows is the row count restored from the snapshot (base index
	// plus its captured side rows).
	SnapshotRows int
	// ReplayedRows is the number of WAL records replayed past the snapshot:
	// one per inserted row (an Update logs one per rewritten row) and one per
	// Delete, DeleteRows or Update sweep that found victims — records, not
	// rows, despite the name.
	ReplayedRows int
	// TruncatedTail reports that the newest WAL segment ended in a torn or
	// corrupt record and was cut back to its last valid record — the
	// expected artifact of a crash mid-append.
	TruncatedTail bool
}

// durability is the part of an AdaptiveIndex that lives in a directory: one
// atomic, checksummed snapshot plus the write-ahead log segments every
// mutation is appended to before it is acknowledged (the active segment
// itself is AdaptiveIndex.walLog, under the writer lock apply already holds).
// After kill -9 or power loss, OpenDurable restores the snapshot and replays
// the log tail, recovering every acknowledged mutation up to the sync policy's
// window; Checkpoint runs concurrently with queries and mutations (writers
// stall only for a pointer swap).
//
//	d, err := flood.CreateDurable(dir, idx, nil)
//	d.Insert(row)            // logged, then visible
//	d.Checkpoint()           // absorb the log into the snapshot
//	d.Close()
//	d, rep, err := flood.OpenDurable(dir, nil)   // after a crash
type durability struct {
	dir  string
	opts DurableOptions

	// ckptMu serializes checkpoints; gen is the current WAL generation,
	// mutated only under it.
	ckptMu sync.Mutex
	gen    uint64

	// crashPoint, when set, runs at named stages of a checkpoint; the
	// fault-injection tests panic from it to simulate a crash between any
	// two durability steps.
	crashPoint func(stage string)
}

// DurableIndex is the AdaptiveIndex CreateDurable and OpenDurable return.
//
// Deprecated: durability is a property of an AdaptiveIndex, not a type of its
// own; the alias remains only because benchmark/ names it.
type DurableIndex = AdaptiveIndex

// Adaptive returns a itself.
//
// Deprecated: a durable index is its adaptive index; the method remains only
// because benchmark/ calls it.
func (a *AdaptiveIndex) Adaptive() *AdaptiveIndex { return a }

// newDurable wraps base as the durable index living in dir, its log not yet
// attached.
func newDurable(dir string, base *Flood, o DurableOptions) *AdaptiveIndex {
	a := NewAdaptiveIndex(base, o.Adaptive)
	a.dur = &durability{dir: dir, opts: o}
	return a
}

// startLog makes a fresh segment of generation gen the active log. Nothing
// else can reach a yet, so the writer lock is not needed.
func (a *AdaptiveIndex) startLog(gen uint64) error {
	l, err := wal.Create(filepath.Join(a.dur.dir, wal.SegmentName(gen)), gen, a.dur.opts.Sync)
	if err != nil {
		return err
	}
	a.dur.gen, a.walLog = gen, l
	return nil
}

// CreateDurable initializes dir (created if needed) with a snapshot of base
// and an empty WAL segment, and returns the serving index. The directory
// must not already contain a snapshot.
func CreateDurable(dir string, base *Flood, opts *DurableOptions) (*AdaptiveIndex, error) {
	o := opts.orDefault()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
		return nil, fmt.Errorf("flood: %s already contains a snapshot (use OpenDurable)", dir)
	}
	a := newDurable(dir, base, o)
	if err := a.dur.writeSnapshot(0, base.idx, base.schema, a.epoch.Load().log.encoder(0), base.idx.Tombstones(), nil); err != nil {
		return nil, err
	}
	if err := a.startLog(1); err != nil {
		return nil, err
	}
	return a, nil
}

// OpenDurable recovers the index persisted in dir: it loads the snapshot
// (with Load's corruption tolerance), replays every WAL segment past the
// snapshot's marker in generation order, truncates a damaged tail on the
// newest segment, rotates to a fresh segment, and resumes serving. Damage
// anywhere acknowledged data could be lost — a corrupt snapshot data
// section, a damaged non-newest segment, a missing segment generation —
// surfaces as a typed error instead of a silently wrong index.
func OpenDurable(dir string, opts *DurableOptions) (*AdaptiveIndex, RecoveryReport, error) {
	o := opts.orDefault()
	var rep RecoveryReport

	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, rep, err
	}
	res, err := core.LoadSections(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	if err != nil {
		return nil, rep, err
	}
	rep.Retrained = res.Retrained
	rep.Warnings = res.Warnings

	fl, err := floodFromLoadResult(res)
	if err != nil {
		return nil, rep, err
	}
	marker := uint64(0)
	if p, ok := res.Extra[sectionMarker]; ok {
		r := wire.NewReaderBytes(p)
		marker = r.U64()
		if err := r.Err(); err != nil {
			return nil, rep, fmt.Errorf("flood: snapshot marker: %w", err)
		}
	}
	d := newDurable(dir, fl, o)

	// Seed the side log with the checkpoint-captured rows — the log section,
	// or the raw side rows of a snapshot written before it — then mark its
	// dead rows (floodFromLoadResult installed the base tombstones).
	log := d.epoch.Load().log
	side := make([][]int64, fl.Table().NumCols())
	if p, ok := res.Extra[sectionLog]; ok {
		side, err = colstore.DecodeSealed(wire.NewReaderBytes(p), fl.Table().NumCols())
	} else if p, ok := res.Extra[sectionDelta]; ok {
		side, err = decodeSideRows(p, fl.Table().NumCols())
	}
	if err != nil {
		return nil, rep, err
	}
	log.seed(side)
	n := log.rows()
	rep.SnapshotRows = fl.Table().NumRows() + int(n)
	if p, ok := res.Extra[sectionTomb]; ok {
		_, logDead, err := decodeTombSection(p, fl.Table().NumRows())
		if err != nil {
			return nil, rep, err
		}
		rows := make([]int, len(logDead))
		for i, r := range logDead {
			if rows[i] = int(r); r < 0 || r >= n {
				return nil, rep, fmt.Errorf("flood: snapshot tombstones mark side row %d of %d: %w", r, n, ErrChecksum)
			}
		}
		log.deleteRows(rows, n)
	}

	// Replay WAL segments beyond the marker, oldest first. Generations at
	// or below the marker are absorbed by the snapshot; a crash between
	// snapshot rename and segment deletion can leave them behind, so they
	// are cleaned up here.
	gens, err := listSegments(dir)
	if err != nil {
		return nil, rep, err
	}
	var replay []uint64
	for _, g := range gens {
		if g > marker {
			replay = append(replay, g)
		}
	}
	for i, g := range replay {
		if want := marker + 1 + uint64(i); g != want {
			return nil, rep, fmt.Errorf("flood: wal segment %s missing: %w", wal.SegmentName(want), ErrTruncated)
		}
		path := filepath.Join(dir, wal.SegmentName(g))
		ep := d.epoch.Load()
		// Each record re-enters through the epoch's own apply — the path a
		// live write takes — with no log attached yet, so nothing is logged
		// twice.
		r, err := wal.Replay(path, func(payload []byte) error {
			m, err := decodeWALRecord(payload, fl.Table().NumCols())
			if err != nil {
				return err
			}
			_, _, err = ep.apply(m, nil)
			return err
		})
		if err != nil {
			return nil, rep, fmt.Errorf("flood: replaying %s: %w", wal.SegmentName(g), err)
		}
		rep.ReplayedRows += r.Records
		if r.Damaged {
			if i != len(replay)-1 {
				// Damage before the newest segment means acknowledged,
				// synced inserts are gone — that must never be silent.
				return nil, rep, fmt.Errorf("flood: wal segment %s: %w", wal.SegmentName(g), r.Err)
			}
			if err := wal.TruncateTail(path, r.ValidSize); err != nil {
				return nil, rep, err
			}
			rep.TruncatedTail = true
		}
	}

	// Resume on a fresh segment; replayed segments are never appended to.
	if err := d.startLog(marker + uint64(len(replay)) + 1); err != nil {
		return nil, rep, err
	}
	d.dur.removeSegmentsThrough(marker, gens)
	return d, rep, nil
}

// Checkpoint absorbs the WAL into a fresh atomic snapshot: it rotates
// inserts onto a new segment, captures the current base index plus the
// frozen side-log prefix, writes them as the new snapshot, and deletes the
// absorbed segments. Serving continues throughout; a crash at any point
// leaves a directory OpenDurable recovers completely. On an in-memory index
// there is nothing to absorb: Checkpoint returns nil.
func (a *AdaptiveIndex) Checkpoint() error {
	d := a.dur
	if d == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if a.walLog == nil {
		return errClosed
	}

	newGen := d.gen + 1
	nl, err := wal.Create(filepath.Join(d.dir, wal.SegmentName(newGen)), newGen, d.opts.Sync)
	if err != nil {
		return err
	}

	// Quiesce writers just long enough to capture a consistent image and
	// swap the log: rows [0, frozen) of the side log plus the (immutable)
	// base are exactly the inserts acknowledged against segments <= oldGen;
	// later inserts land in the new segment.
	a.mu.Lock()
	ep := a.epoch.Load()
	frozen := ep.log.rows()
	side := ep.log.encoder(frozen)
	idx := ep.flood.idx
	// Deletions are WAL-appended and tombstone-published under one writer
	// lock hold, so relative to this capture every delete is either fully
	// before (its marks are in these pinned tombstone versions, its record
	// in an absorbed segment) or fully after (record in the new segment,
	// replayed on open) — never half in each, which would double-delete.
	baseTomb := idx.Tombstones()
	logTomb := ep.log.tomb.Load()
	old := a.walLog
	a.walLog = nl
	a.mu.Unlock()
	oldGen := d.gen
	d.gen = newGen
	d.crash("rotated")

	if err := old.Close(); err != nil {
		return fmt.Errorf("flood: closing wal segment: %w", err)
	}
	d.crash("old-closed")

	// Every mark in the captured log tombstones is on a row that existed
	// when the mark was published, hence below frozen.
	var logDead []int64
	for r := int64(0); r < frozen; r++ {
		if logTomb.Has(int(r)) {
			logDead = append(logDead, r)
		}
	}
	if err := d.writeSnapshot(oldGen, idx, a.schema, side, baseTomb, logDead); err != nil {
		return err
	}
	d.crash("snapshot")

	gens, err := listSegments(d.dir)
	if err != nil {
		return err
	}
	d.removeSegmentsThrough(oldGen, gens)
	return nil
}

func (d *durability) crash(stage string) {
	if d.crashPoint != nil {
		d.crashPoint(stage)
	}
}

// writeSnapshot atomically replaces the snapshot file with the captured
// image: base index, schema, side rows (side writes them), deletion state,
// and the absorbed-generation marker. baseTomb and logDead must be the
// versions pinned at the same instant as side, never re-read at encode time —
// a delete landing between capture and encode belongs to the new WAL
// segment.
func (d *durability) writeSnapshot(marker uint64, idx *core.Flood, schema *Schema, side func(*wire.Writer), baseTomb *colstore.Tombstones, logDead []int64) error {
	return wire.WriteFileAtomic(filepath.Join(d.dir, snapshotFile), func(w io.Writer) error {
		var extra []core.ExtraSection
		if schema != nil {
			extra = append(extra, core.ExtraSection{Tag: sectionSchema, Encode: schema.encodeSchema})
		}
		extra = append(extra, core.ExtraSection{Tag: sectionLog, Encode: side})
		if baseTomb.Dead() > 0 || len(logDead) > 0 {
			extra = append(extra, core.ExtraSection{Tag: sectionTomb, Encode: encodeTombSection(baseTomb, logDead)})
		}
		extra = append(extra, core.ExtraSection{Tag: sectionMarker, Encode: func(fw *wire.Writer) {
			fw.U64(marker)
		}})
		return idx.SaveSections(w, extra)
	})
}

// encodeTombSection serializes the deletion state: the covered base row
// count with the packed bitmap words, then the dead side-log row indices.
func encodeTombSection(baseTomb *colstore.Tombstones, logDead []int64) func(*wire.Writer) {
	return func(fw *wire.Writer) {
		if baseTomb.Dead() > 0 {
			fw.Int(baseTomb.Len())
			fw.U64s(baseTomb.Words())
		} else {
			fw.Int(0)
			fw.U64s(nil)
		}
		fw.I64s(logDead)
	}
}

// decodeTombSection parses the deletion state, validating the bitmap's
// structural invariants against the loaded table so corruption that survives
// the section checksum still cannot produce phantom deletions.
func decodeTombSection(payload []byte, baseRows int) (*colstore.Tombstones, []int64, error) {
	r := wire.NewReaderBytes(payload)
	n := r.Int()
	words := r.U64s()
	logDead := r.I64s()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("flood: snapshot tombstones: %w", err)
	}
	if n == 0 && len(words) == 0 {
		return nil, logDead, nil
	}
	if n != baseRows {
		return nil, nil, fmt.Errorf("flood: snapshot tombstones cover %d rows, base has %d: %w", n, baseRows, ErrChecksum)
	}
	t, ok := colstore.TombstonesFromWords(n, words)
	if !ok {
		return nil, nil, fmt.Errorf("flood: snapshot tombstones are structurally invalid: %w", ErrChecksum)
	}
	return t, logDead, nil
}

// decodeSideRows reads the raw side-log rows of a snapshot written before
// the log section (sectionDelta) into the column-major rows seed takes: the
// column count, the row count, then each column. A payload the section
// checksum passed that disagrees with itself or the table fails typed.
func decodeSideRows(payload []byte, wantCols int) ([][]int64, error) {
	r := wire.NewReaderBytes(payload)
	nc, n := r.Int(), r.I64()
	cols := make([][]int64, wantCols)
	for c := range cols {
		if cols[c] = r.I64s(); nc != wantCols || int64(len(cols[c])) != n || r.Err() != nil {
			return nil, fmt.Errorf("flood: snapshot side rows declare %d columns of %d rows, table has %d columns: %w", nc, n, wantCols, ErrChecksum)
		}
	}
	return cols, nil
}

// listSegments returns the WAL generations present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if g, ok := wal.ParseSegmentName(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	slices.Sort(gens)
	return gens, nil
}

// removeSegmentsThrough deletes segments with generation <= g and fsyncs the
// directory. Deletion failures are ignored: a leftover absorbed segment is
// re-collected by the next open or checkpoint.
func (d *durability) removeSegmentsThrough(g uint64, gens []uint64) {
	removed := false
	for _, gen := range gens {
		if gen <= g {
			os.Remove(filepath.Join(d.dir, wal.SegmentName(gen)))
			removed = true
		}
	}
	if removed {
		wire.SyncDir(d.dir)
	}
}

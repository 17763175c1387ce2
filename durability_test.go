package flood

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"flood/internal/core"
	"flood/internal/faultfs"
	"flood/internal/wal"
	"flood/internal/wire"
)

// corruptionTyped reports whether err wraps one of the typed corruption
// sentinels — the only acceptable failure mode for damaged persistent state.
func corruptionTyped(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrVersion)
}

// queryCounts runs the fixture queries against an index and returns the
// match counts.
func queryCounts(fx *typedFixture, idx Index) []int64 {
	qs := fixtureQueries(fx)
	out := make([]int64, len(qs))
	for i, tc := range qs {
		agg := NewCount()
		idx.Execute(tc.q, agg)
		out[i] = agg.Result()
	}
	return out
}

// TestSnapshotEveryTruncationAndFlip is the snapshot half of the
// fault-injection property: for EVERY prefix truncation and EVERY
// single-byte corruption of a saved snapshot, Load must either return a
// typed corruption error or an index that answers queries exactly like the
// original (the models section may retrain) — never panic, never silently
// wrong rows.
func TestSnapshotEveryTruncationAndFlip(t *testing.T) {
	fx := newTypedFixture(t, 64, 41)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	want := queryCounts(fx, idx)

	check := func(kind string, pos int, data []byte) {
		t.Helper()
		loaded, _, err := load(bytes.NewReader(data))
		if err != nil {
			if !corruptionTyped(err) {
				t.Fatalf("%s at %d: untyped error %v", kind, pos, err)
			}
			return
		}
		got := queryCounts(fx, loaded)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s at %d: loaded index silently wrong (query %d: %d != %d)",
					kind, pos, i, got[i], want[i])
			}
		}
	}

	for cut := 0; cut <= len(snap); cut += corruptionStride {
		check("truncation", cut, snap[:cut])
	}
	for off := 0; off < len(snap); off += corruptionStride {
		check("flip", off, faultfs.Flip(snap, off))
	}
}

// corruptionStride walks every byte normally; under the race detector's
// ~10x slowdown the exhaustive sweeps sample a coprime stride instead, so
// the race CI lanes still cross every section boundary region.
var corruptionStride = func() int {
	if raceEnabled {
		return 13
	}
	return 1
}()

// TestSnapshotModelDamageRetrains pins the graceful-degradation contract at
// the public API: a flip inside the models section loads with Retrained set
// and correct results.
func TestSnapshotModelDamageRetrains(t *testing.T) {
	fx := newTypedFixture(t, 500, 42)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	want := queryCounts(fx, idx)

	// The models section is written last; damage its final payload byte
	// (just before the trailing 4-byte CRC).
	loaded, rep, err := load(bytes.NewReader(faultfs.Flip(snap, len(snap)-5)))
	if err != nil {
		t.Fatalf("model-section flip should degrade, got %v", err)
	}
	if !rep.Retrained || len(rep.Warnings) == 0 {
		t.Fatalf("expected retrain report, got %+v", rep)
	}
	if loaded.Schema() == nil {
		t.Fatal("schema lost during degraded load")
	}
	got := queryCounts(fx, loaded)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retrained index wrong on query %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestSaveFileLoadFileAtomic exercises the atomic file helpers: round-trip,
// overwrite, and no temp-file litter or target damage when a write fails.
func TestSaveFileLoadFileAtomic(t *testing.T) {
	fx := newTypedFixture(t, 300, 43)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.flood")
	for i := 0; i < 2; i++ { // second pass overwrites
		if err := idx.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	loaded, _, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema() == nil {
		t.Fatal("schema not restored from file")
	}
	want, got := queryCounts(fx, idx), queryCounts(fx, loaded)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: %d != %d", i, got[i], want[i])
		}
	}
	// A failing write must leave no temp litter and not clobber the target.
	if err := wire.WriteFileAtomic(path, func(io.Writer) error { return errors.New("boom") }); err == nil {
		t.Fatal("injected write error lost")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file litter: %v", entries)
	}
	if _, _, err := LoadFile(path); err != nil {
		t.Fatalf("failed overwrite clobbered the snapshot: %v", err)
	}
}

// Inserted rows carry ts = insertBase+i — distinct values far above the
// fixture's ts range [0, 100k) — so recovery can be checked as an exact
// prefix of the acknowledged sequence by count and sum arithmetic.
const insertBase = 1_000_000

func insertedRow(fx *typedFixture, i int) []int64 {
	row, err := fx.schema.EncodeRow(int64(insertBase+i), 4.25, fx.city[i%len(fx.city)], fx.pickup[i%len(fx.pickup)])
	if err != nil {
		panic(err)
	}
	return row
}

// recoveredInserts counts the recovered inserted rows and fails the test
// unless they form an exact prefix {0..j-1} of the acknowledged sequence
// (checked via the arithmetic-series sum of their ts values).
func recoveredInserts(t *testing.T, idx Index) int64 {
	t.Helper()
	q := NewQuery(4).WithRange(0, insertBase, insertBase+1_000_000)
	cnt, sum := NewCount(), NewSum(0)
	idx.Execute(q, cnt)
	idx.Execute(q, sum)
	j := cnt.Result()
	wantSum := j*insertBase + j*(j-1)/2
	if got := sum.Result(); got != wantSum {
		t.Fatalf("recovered inserts are not the exact prefix: count %d, ts-sum %d != %d", j, got, wantSum)
	}
	return j
}

// baseRows counts the rows that came from the original fixture (ts below
// insertBase), so WAL damage can be distinguished from base-data damage.
func baseRows(idx Index) int64 {
	agg := NewCount()
	idx.Execute(NewQuery(4).WithRange(0, 0, insertBase-1), agg)
	return agg.Result()
}

// copyDir clones the durable directory so each corruption trial starts from
// the same on-disk state.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableRecoverEveryWALCorruption is the WAL half of the property: a
// durable directory with acknowledged inserts is corrupted at every byte of
// the live segment (every truncation, every flip) and reopened. Recovery
// must always succeed — tail damage on the newest segment is the expected
// crash artifact — and must always yield an exact prefix of the
// acknowledged inserts with the base data intact: never a panic, never a
// row that was not inserted.
func TestDurableRecoverEveryWALCorruption(t *testing.T) {
	fx := newTypedFixture(t, 64, 44)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	d, err := CreateDurable(master, idx, &DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 24
	for i := 0; i < inserts; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate kill -9: abandon d without Close. SyncAlways means every
	// acknowledged record already reached the disk.
	segName := wal.SegmentName(1)
	fi, err := os.Stat(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}
	segSize := fi.Size()

	verify := func(kind string, pos int64, dir string, wantFull bool) {
		t.Helper()
		re, _, err := OpenDurable(dir, nil)
		if err != nil {
			t.Fatalf("%s at %d: open failed: %v", kind, pos, err)
		}
		defer re.Close()
		j := recoveredInserts(t, re)
		if wantFull && j != inserts {
			t.Fatalf("%s at %d: recovered %d of %d acked inserts", kind, pos, j, inserts)
		}
		if n := baseRows(re); n != 64 {
			t.Fatalf("%s at %d: base data damaged: %d of 64 rows", kind, pos, n)
		}
	}

	// Sanity: the uncorrupted directory recovers everything.
	verify("clean", -1, copyDir(t, master), true)

	for cut := int64(0); cut <= segSize; cut += int64(corruptionStride) {
		dir := copyDir(t, master)
		if err := faultfs.TruncateFile(filepath.Join(dir, segName), cut); err != nil {
			t.Fatal(err)
		}
		verify("truncation", cut, dir, false)
	}
	for off := int64(0); off < segSize; off += int64(corruptionStride) {
		dir := copyDir(t, master)
		if err := faultfs.FlipByteInFile(filepath.Join(dir, segName), off); err != nil {
			t.Fatal(err)
		}
		verify("flip", off, dir, false)
	}
}

// TestDurableOlderSegmentDamageIsTypedError covers the segments behind the
// newest one. A checkpoint killed after rotating leaves the acknowledged
// inserts in segment 1 and a fresh segment 2, so segment 1 is no tail:
// damage to any of its bytes, or its removal, must fail the open with a
// typed error, since recovering without it would silently drop acknowledged
// inserts.
func TestDurableOlderSegmentDamageIsTypedError(t *testing.T) {
	fx := newTypedFixture(t, 64, 47)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	d, err := CreateDurable(master, idx, &DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	d.SetCrashPoint(func(s string) {
		if s == "rotated" {
			panic("crash: rotated")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crash point did not fire")
			}
		}()
		d.Checkpoint() //nolint:errcheck // panics by design
	}()
	older := wal.SegmentName(1)
	if _, err := os.Stat(filepath.Join(master, wal.SegmentName(2))); err != nil {
		t.Fatalf("the killed checkpoint left no newer segment: %v", err)
	}
	re, _, err := OpenDurable(copyDir(t, master), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j := recoveredInserts(t, re); j != 10 {
		t.Fatalf("undamaged directory recovered %d of 10 acked inserts", j)
	}
	re.Close()

	fi, err := os.Stat(filepath.Join(master, older))
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < fi.Size(); off += int64(corruptionStride) {
		dir := copyDir(t, master)
		if err := faultfs.FlipByteInFile(filepath.Join(dir, older), off); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, nil)
		if err == nil {
			re.Close()
			t.Fatalf("flip at %d of %s: open succeeded", off, older)
		}
		if !corruptionTyped(err) {
			t.Fatalf("flip at %d of %s: untyped error %v", off, older, err)
		}
	}
	dir := copyDir(t, master)
	if err := os.Remove(filepath.Join(dir, older)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(dir, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing %s: err %v, want ErrTruncated", older, err)
	}
}

// TestDurableSnapshotCorruptionIsTypedOrRecovered flips every byte of the
// snapshot file in a durable directory: OpenDurable must either fail with a
// typed corruption error or recover a fully correct index (models retrain,
// WAL replay still applies every acknowledged insert and delete). The
// snapshot is a checkpoint of a side log of one sealed block and a partial
// block, with deleted rows in both, so the flips reach its side rows and its
// log tombstones; the last inserts are only in the WAL.
func TestDurableSnapshotCorruptionIsTypedOrRecovered(t *testing.T) {
	fx := newTypedFixture(t, 48, 45)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	d, err := CreateDurable(master, idx, &DurableOptions{Sync: SyncAlways, Adaptive: &AdaptiveConfig{MergeFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	// Every eighth checkpointed insert is preceded by a victim row, outside
	// the ts ranges recoveredInserts and baseRows count, and the victims are
	// deleted before the checkpoint: 152 inserts and 19 victims are 171 side
	// rows, a sealed block and 43 rows past it.
	const inserts, checkpointed, victimBase = 160, 152, 3 * insertBase
	victims := NewQuery(4).WithRange(0, victimBase, victimBase+insertBase)
	for i := 0; i < inserts; i++ {
		if i == checkpointed {
			if n, err := d.Delete(victims); err != nil || n != checkpointed/8 {
				t.Fatalf("deleting victims: %d, %v", n, err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i < checkpointed && i%8 == 0 {
			row, err := fx.schema.EncodeRow(int64(victimBase+i), 4.25, fx.city[0], fx.pickup[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	re, rep, err := OpenDurable(copyDir(t, master), nil)
	if err != nil || rep.SnapshotRows != 48+checkpointed+checkpointed/8 {
		t.Fatalf("clean open: %d snapshot rows, %v", rep.SnapshotRows, err)
	}
	re.Close()
	fi, err := os.Stat(filepath.Join(master, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < fi.Size(); off += int64(corruptionStride) {
		dir := copyDir(t, master)
		if err := faultfs.FlipByteInFile(filepath.Join(dir, snapshotFile), off); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, nil)
		if err != nil {
			if !corruptionTyped(err) {
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
			continue
		}
		if j := recoveredInserts(t, re); j != inserts {
			t.Fatalf("flip at %d: recovered %d of %d acked inserts", off, j, inserts)
		}
		if n := baseRows(re); n != 48 {
			t.Fatalf("flip at %d: base data silently wrong: %d of 48 rows", off, n)
		}
		if n := countOf(t, re, victims); n != 0 {
			t.Fatalf("flip at %d: %d deleted rows came back", off, n)
		}
		re.Close()
	}
}

// TestOpenDurableReadsLegacySideRows: a snapshot written before the log
// section holds its side rows as a dlta payload — column count, row count,
// then each column as raw int64s. OpenDurable still reads it, and recovers
// the same live rows, answers and pending count as from the log section a
// checkpoint writes of the same rows: a sealed block and a partial block,
// each with deleted rows.
func TestOpenDurableReadsLegacySideRows(t *testing.T) {
	fx := newTypedFixture(t, 48, 47)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	opts := &DurableOptions{Adaptive: &AdaptiveConfig{MergeFraction: -1}}
	current := t.TempDir()
	d, err := CreateDurable(current, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	const pending = 171
	var side [][]int64
	for i := 0; i < pending; i++ {
		side = append(side, insertedRow(fx, i))
		if err := d.Insert(side[i]); err != nil {
			t.Fatal(err)
		}
	}
	logDead := []int64{3, 64, 127, 128, 150, 170}
	ids := make([]int64, len(logDead))
	for i, r := range logDead {
		ids[i] = 48 + r
	}
	if n, err := d.DeleteRows(ids); err != nil || n != int64(len(ids)) {
		t.Fatalf("DeleteRows: %d, %v", n, err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := t.TempDir()
	err = wire.WriteFileAtomic(filepath.Join(legacy, snapshotFile), func(w io.Writer) error {
		return idx.idx.SaveSections(w, []core.ExtraSection{
			{Tag: sectionSchema, Encode: fx.schema.encodeSchema},
			{Tag: sectionDelta, Encode: func(fw *wire.Writer) {
				fw.Int(len(side[0]))
				fw.I64(pending)
				for c := range side[0] {
					col := make([]int64, pending)
					for r := range col {
						col[r] = side[r][c]
					}
					fw.I64s(col)
				}
			}},
			{Tag: sectionTomb, Encode: func(fw *wire.Writer) {
				fw.Int(0)
				fw.U64s(nil)
				fw.I64s(logDead)
			}},
			{Tag: sectionMarker, Encode: func(fw *wire.Writer) { fw.U64(1) }},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	type recovered struct {
		rows                   []string
		counts                 []int64
		live, pending, inserts int64
	}
	open := func(dir string) recovered {
		t.Helper()
		re, _, err := OpenDurable(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		rows, _ := re.Select(NewQuery(4))
		var got recovered
		for rows.Next() {
			got.rows = append(got.rows, fmt.Sprint(rows.Int64(0), rows.Int64(1), rows.Int64(2), rows.Int64(3)))
		}
		rows.Close()
		slices.Sort(got.rows)
		got.counts = queryCounts(fx, re)
		got.live, got.pending = int64(re.LiveRows()), int64(re.Stats().PendingRows)
		got.inserts = countOf(t, re, NewQuery(4).WithRange(0, insertBase, 2*insertBase))
		return got
	}
	want, got := open(current), open(legacy)
	if want.pending != pending || want.live != 48+pending-int64(len(logDead)) ||
		int64(len(want.rows)) != want.live || want.inserts != pending-int64(len(logDead)) {
		t.Fatalf("log section recovered %d pending, %d live, %d selected, %d inserted rows",
			want.pending, want.live, len(want.rows), want.inserts)
	}
	if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.counts, want.counts) ||
		got.live != want.live || got.pending != want.pending || got.inserts != want.inserts {
		t.Fatalf("dlta snapshot recovered %d rows (%d live, %d pending), counts %v; log section %d (%d live, %d pending), counts %v",
			len(got.rows), got.live, got.pending, got.counts, len(want.rows), want.live, want.pending, want.counts)
	}
}

// TestCheckpointKillPoints crashes a checkpoint at every stage boundary
// (after WAL rotation, after closing the old segment, after the snapshot
// rename) and verifies the directory recovers every acknowledged insert and
// keeps working afterwards.
func TestCheckpointKillPoints(t *testing.T) {
	for _, stage := range []string{"rotated", "old-closed", "snapshot"} {
		t.Run(stage, func(t *testing.T) {
			fx := newTypedFixture(t, 64, 46)
			idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			d, err := CreateDurable(dir, idx, &DurableOptions{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := d.Insert(insertedRow(fx, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Checkpoint(); err != nil { // clean checkpoint first
				t.Fatal(err)
			}
			for i := 10; i < 20; i++ {
				if err := d.Insert(insertedRow(fx, i)); err != nil {
					t.Fatal(err)
				}
			}
			d.SetCrashPoint(func(s string) {
				if s == stage {
					panic("crash:" + stage)
				}
			})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("crash point did not fire")
					}
				}()
				d.Checkpoint() //nolint:errcheck // panics by design
			}()

			re, rep, err := OpenDurable(dir, nil)
			if err != nil {
				t.Fatalf("recovery after crash at %q: %v", stage, err)
			}
			if j := recoveredInserts(t, re); j != 20 {
				t.Fatalf("crash at %q: recovered %d of 20 acked inserts (report %+v)", stage, j, rep)
			}
			// The recovered index keeps working: insert, checkpoint, reopen.
			if err := re.Insert(insertedRow(fx, 20)); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, _, err := OpenDurable(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if j := recoveredInserts(t, re2); j != 21 {
				t.Fatalf("post-recovery checkpoint lost rows: %d of 21", j)
			}
		})
	}
}

// TestCheckpointConcurrentServing races Execute and Insert against repeated
// checkpoints (runs in the CI race matrix), then recovers the directory and
// checks every acknowledged insert survived.
func TestCheckpointConcurrentServing(t *testing.T) {
	fx := newTypedFixture(t, 256, 47)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := CreateDurable(dir, idx, &DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 40
	var next atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < per; i++ {
				n := next.Add(1) - 1
				if err := d.Insert(insertedRow(fx, int(n))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := fx.schema.Where().WithFloatRange("fare", 1.0, 9.0).Query()
			for {
				select {
				case <-stop:
					return
				default:
					d.Execute(q, NewCount())
				}
			}
		}()
	}
	ckErr := make(chan error, 1)
	writers.Add(1)
	go func() {
		defer writers.Done()
		for c := 0; c < 5; c++ {
			if err := d.Checkpoint(); err != nil {
				ckErr <- err
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-ckErr:
		t.Fatal(err)
	default:
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, err := OpenDurable(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if j := recoveredInserts(t, re); j != workers*per {
		t.Fatalf("recovered %d of %d acked inserts", j, workers*per)
	}
}

// TestDurableSchemaTypedQueriesAfterRecovery verifies a reopened durable
// index serves typed queries through the snapshot-restored schema.
func TestDurableSchemaTypedQueriesAfterRecovery(t *testing.T) {
	fx := newTypedFixture(t, 400, 48)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := CreateDurable(dir, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDurable(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	s := re.Adaptive().Index().Schema()
	if s == nil {
		t.Fatal("schema not restored")
	}
	q := s.Where().WithStringEquals("city", "denver").Query()
	agg := NewCount()
	re.Execute(q, agg)
	want := int64(0)
	for _, c := range fx.city {
		if c == "denver" {
			want++
		}
	}
	if got := agg.Result(); got != want {
		t.Fatalf("typed query through restored schema: %d != %d", got, want)
	}
}

package flood

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"flood/internal/faultfs"
	"flood/internal/wal"
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
		loaded, err := Load(bytes.NewReader(data))
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
	loaded, rep, err := LoadWithReport(bytes.NewReader(faultfs.Flip(snap, len(snap)-5)))
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
	loaded, err := LoadFile(path)
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
	if err := WriteFileAtomic(path, func(io.Writer) error { return errors.New("boom") }); err == nil {
		t.Fatal("injected write error lost")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file litter: %v", entries)
	}
	if _, err := LoadFile(path); err != nil {
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

// TestDurableSnapshotCorruptionIsTypedOrRecovered flips every byte of the
// snapshot file in a durable directory: OpenDurable must either fail with a
// typed corruption error or recover a fully correct index (models retrain,
// WAL replay still applies every acknowledged insert).
func TestDurableSnapshotCorruptionIsTypedOrRecovered(t *testing.T) {
	fx := newTypedFixture(t, 48, 45)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	d, err := CreateDurable(master, idx, &DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 8
	for i := 0; i < inserts; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
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
		re.Close()
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

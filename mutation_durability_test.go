package flood

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"flood/internal/faultfs"
	"flood/internal/wal"
)

// survivingInserts counts recovered inserted rows and fails the test unless
// they are exactly the acknowledged prefix {0..total-1} minus the deleted
// indices (checked via the ts-sum, as recoveredInserts does for prefixes).
func survivingInserts(t *testing.T, idx Index, total int, deleted []int) int64 {
	t.Helper()
	q := NewQuery(4).WithRange(0, insertBase, insertBase+1_000_000)
	cnt, sum := NewCount(), NewSum(0)
	idx.Execute(q, cnt)
	idx.Execute(q, sum)
	j := int64(total - len(deleted))
	wantSum := int64(total)*insertBase + int64(total)*int64(total-1)/2
	for _, i := range deleted {
		wantSum -= int64(insertBase + i)
	}
	if cnt.Result() != j || sum.Result() != wantSum {
		t.Fatalf("surviving inserts: count %d ts-sum %d, want count %d ts-sum %d",
			cnt.Result(), sum.Result(), j, wantSum)
	}
	return j
}

// deleteInsertedRow removes the inserted row carrying ts = insertBase+i by
// exact-match predicate, failing unless exactly one row was affected.
func deleteInsertedRow(t *testing.T, d Deleter, i int) {
	t.Helper()
	n, err := d.Delete(NewQuery(4).WithEquals(0, int64(insertBase+i)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delete of inserted row %d affected %d rows, want 1", i, n)
	}
}

// TestDeleteSurvivesCrash is the headline durability property for the
// mutation path: acknowledged deletes — of base rows and of WAL-logged
// inserts alike — survive kill -9 and every subsequent checkpoint cycle.
func TestDeleteSurvivesCrash(t *testing.T) {
	fx := newTypedFixture(t, 64, 51)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := CreateDurable(dir, idx, &DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 20
	for i := 0; i < inserts; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete two inserted rows and a slice of the base data.
	deleteInsertedRow(t, d, 3)
	deleteInsertedRow(t, d, 7)
	baseDel, err := d.Delete(NewQuery(4).WithRange(0, 0, 999))
	if err != nil {
		t.Fatal(err)
	}
	wantBase := baseRows(d)
	wantLive := int64(d.LiveRows())

	// kill -9: abandon the handle; every acked op is on disk (SyncAlways).
	re, rep, err := OpenDurable(copyDir(t, dir), nil)
	if err != nil {
		t.Fatalf("recovery: %v (report %+v)", err, rep)
	}
	defer re.Close()
	survivingInserts(t, re, inserts, []int{3, 7})
	for _, i := range []int{3, 7} {
		agg := NewCount()
		re.Execute(NewQuery(4).WithEquals(0, int64(insertBase+i)), agg)
		if agg.Result() != 0 {
			t.Fatalf("deleted insert %d resurrected after crash", i)
		}
	}
	if got := baseRows(re); got != wantBase {
		t.Fatalf("recovered %d base rows, want %d (%d deleted)", got, wantBase, baseDel)
	}
	if got := int64(re.LiveRows()); got != wantLive {
		t.Fatalf("recovered LiveRows = %d, want %d", got, wantLive)
	}

	// The tombstones also round-trip a clean checkpoint + reopen.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, _, err := OpenDurable(copyDir(t, dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	re2.Close()
}

// TestDeleteKillPoints crashes a checkpoint at every stage boundary with
// acknowledged deletes in flight — marked after the previous checkpoint, so
// they live only in WAL records and tombstone bitmaps — and verifies every
// one survives recovery at every kill point.
func TestDeleteKillPoints(t *testing.T) {
	for _, stage := range []string{"rotated", "old-closed", "snapshot"} {
		t.Run(stage, func(t *testing.T) {
			fx := newTypedFixture(t, 64, 52)
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
			if err := d.Checkpoint(); err != nil { // deletes below postdate this
				t.Fatal(err)
			}
			for i := 10; i < 20; i++ {
				if err := d.Insert(insertedRow(fx, i)); err != nil {
					t.Fatal(err)
				}
			}
			// One checkpointed insert, one fresh insert, some base rows.
			deleteInsertedRow(t, d, 4)
			deleteInsertedRow(t, d, 14)
			if _, err := d.Delete(NewQuery(4).WithRange(0, 0, 999)); err != nil {
				t.Fatal(err)
			}
			wantBase := baseRows(d)
			wantLive := int64(d.LiveRows())

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
				t.Fatalf("recovery after crash at %q: %v (report %+v)", stage, err, rep)
			}
			defer re.Close()
			survivingInserts(t, re, 20, []int{4, 14})
			for _, i := range []int{4, 14} {
				agg := NewCount()
				re.Execute(NewQuery(4).WithEquals(0, int64(insertBase+i)), agg)
				if agg.Result() != 0 {
					t.Fatalf("crash at %q: deleted insert %d resurrected", stage, i)
				}
			}
			if got := baseRows(re); got != wantBase {
				t.Fatalf("crash at %q: %d base rows, want %d", stage, got, wantBase)
			}
			if got := int64(re.LiveRows()); got != wantLive {
				t.Fatalf("crash at %q: LiveRows = %d, want %d", stage, got, wantLive)
			}
		})
	}
}

// TestTornWALDeleteRecord truncates the live WAL segment at every byte
// through a delete record's region: recovery must never panic and must land
// on a clean prefix — the delete fully applied or fully absent, with every
// earlier acknowledged operation intact.
func TestTornWALDeleteRecord(t *testing.T) {
	fx := newTypedFixture(t, 48, 53)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	d, err := CreateDurable(master, idx, &DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 6
	for i := 0; i < inserts; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(master, wal.SegmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	preDelete := fi.Size() // the delete record occupies [preDelete, postDelete)
	deleteInsertedRow(t, d, 2)
	fi, err = os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	postDelete := fi.Size()
	if postDelete <= preDelete {
		t.Fatalf("delete wrote no WAL record (%d -> %d bytes)", preDelete, postDelete)
	}

	for cut := preDelete; cut <= postDelete; cut++ {
		dir := copyDir(t, master)
		if err := faultfs.TruncateFile(filepath.Join(dir, wal.SegmentName(1)), cut); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, nil)
		if err != nil {
			if !corruptionTyped(err) {
				t.Fatalf("cut at %d: untyped error %v", cut, err)
			}
			continue
		}
		agg := NewCount()
		re.Execute(NewQuery(4).WithEquals(0, int64(insertBase+2)), agg)
		gone := agg.Result() == 0
		if gone != (cut == postDelete) {
			t.Fatalf("cut at %d (record spans [%d,%d)): delete applied=%v, want fully-%s",
				cut, preDelete, postDelete, gone, map[bool]string{true: "applied", false: "absent"}[cut == postDelete])
		}
		if gone {
			survivingInserts(t, re, inserts, []int{2})
		} else {
			survivingInserts(t, re, inserts, nil)
		}
		re.Close()
	}
}

// TestSnapshotTombSectionDamageIsTypedError pins the hard-error contract:
// tombstones are not reconstructible, so — unlike the models or bitmap-index
// sections, which degrade gracefully — damage confined to the tomb section
// must fail the load with a typed error or load an identical index, never
// silently resurrect deleted rows.
func TestSnapshotTombSectionDamageIsTypedError(t *testing.T) {
	fx := newTypedFixture(t, 64, 54)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Delete(NewQuery(4).WithRange(0, 0, 40_000)); err != nil {
		t.Fatal(err)
	}
	if idx.Deleted() == 0 {
		t.Fatal("fixture deleted nothing; widen the predicate")
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	at := bytes.Index(snap, []byte(sectionTomb))
	if at < 0 {
		t.Fatal("snapshot has no tomb section despite live tombstones")
	}
	wantLive := int64(idx.LiveRows())

	for off := at; off < len(snap); off += corruptionStride {
		loaded, _, err := load(bytes.NewReader(faultfs.Flip(snap, off)))
		if err != nil {
			if !corruptionTyped(err) {
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
			continue
		}
		agg := NewCount()
		loaded.Execute(NewQuery(4), agg)
		if agg.Result() != wantLive {
			t.Fatalf("flip at %d: loaded index counts %d rows, want %d — deleted rows resurrected",
				off, agg.Result(), wantLive)
		}
	}
}

// TestDeletesDuringRebuildSurviveSwap holds a merge, and then a relearn, open
// between its build and its swap, and while it is held deletes a row of each
// kind the swap must not bring back: a base row, a log row the build
// captured, a log row appended after the capture, and one of two rows with
// identical values. After the swap the store — and a recovery from a crash
// copy of its directory — holds exactly what a brute-force model holds.
func TestDeletesDuringRebuildSurviveSwap(t *testing.T) {
	for _, kind := range []string{"merge", "relearn"} {
		t.Run(kind, func(t *testing.T) {
			fx := newTypedFixture(t, 256, 56)
			idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			d, err := CreateDurable(dir, idx, &DurableOptions{Sync: SyncAlways, Adaptive: &AdaptiveConfig{
				MergeFraction: -1,
				DriftFactor:   1e12,
				Build:         &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 207},
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			// byID reads every live row of the serving epoch with its Select id.
			byID := func() map[int64][]int64 {
				rows, _ := d.Select(NewQuery(4))
				defer rows.Close()
				out := map[int64][]int64{}
				for rows.Next() {
					out[rows.RowID()] = []int64{rows.Int64(0), rows.Int64(1), rows.Int64(2), rows.Int64(3)}
				}
				return out
			}
			var model [][]int64
			for _, row := range byID() {
				model = append(model, row)
			}
			insert := func(row []int64) {
				t.Helper()
				if err := d.Insert(row); err != nil {
					t.Fatal(err)
				}
				model = append(model, row)
			}
			deleteID := func(id int64) {
				t.Helper()
				row, ok := byID()[id]
				if !ok {
					t.Fatalf("row %d is not live before its delete", id)
				}
				if n, err := d.DeleteRows([]int64{id}); err != nil || n != 1 {
					t.Fatalf("DeleteRows(%d) = %d, %v; want 1", id, n, err)
				}
				i := slices.IndexFunc(model, func(m []int64) bool { return slices.Equal(m, row) })
				model = slices.Delete(model, i, i+1)
			}
			check := func(s *AdaptiveIndex, when string) {
				t.Helper()
				if got := s.LiveRows(); got != len(model) {
					t.Errorf("%s: LiveRows = %d, the model holds %d", when, got, len(model))
				}
				want := make([]string, len(model))
				for i, row := range model {
					want[i] = fmt.Sprintf("%d|%d|%d|%d|", row[0], row[1], row[2], row[3])
				}
				slices.Sort(want)
				if got := allTuples(s, 4); !slices.Equal(got, want) {
					t.Errorf("%s: the store holds %d rows and the model %d, and they differ", when, len(got), len(want))
				}
			}

			base := int64(d.Stats().BaseRows)
			twin := slices.Clone(byID()[7])
			for i := 0; i < 4; i++ { // log rows base..base+3, captured by the build
				insert(insertedRow(fx, i))
			}
			d.Execute(NewQuery(4).WithRange(0, 0, 50_000), NewCount()) // a relearn trains on it
			entered, release := make(chan struct{}), make(chan struct{})
			d.testHookBuilt = func() {
				close(entered)
				<-release
			}
			var releaseOnce sync.Once
			free := func() { releaseOnce.Do(func() { close(release) }) }
			defer free() // before Close waits for the rebuild, should the test stop early
			trigger := d.TriggerMerge
			if kind == "relearn" {
				trigger = d.TriggerRelearn
			}
			if !trigger() {
				t.Fatalf("the %s did not start", kind)
			}
			<-entered

			// Log rows base+4..base+6, past the freeze; the last has the same
			// values as base row 7.
			insert(insertedRow(fx, 4))
			insert(insertedRow(fx, 5))
			insert(twin)
			deleteID(3)        // a base row
			deleteID(base + 1) // a log row below the freeze
			deleteID(base + 5) // a log row past the freeze
			deleteID(base + 6) // one of two identical rows
			check(d, "while held")

			free()
			d.Wait()
			if st := d.Stats(); st.Merges+st.Relearns != 1 || st.LastError != nil {
				t.Fatalf("%d merges, %d relearns, last error %v; want one %s", st.Merges, st.Relearns, st.LastError, kind)
			}
			check(d, "after the swap")

			re, _, err := OpenDurable(copyDir(t, dir), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re, "recovered from a crash copy")
		})
	}
}

// TestDeleteConcurrentWithRelearnAndCheckpoint races four deleting mutators
// against query loops while the index relearns, merges, and checkpoints
// (runs in the CI race matrix). Observed epochs must be monotonic, observed
// counts non-increasing (a deleted row must never transiently resurrect
// across an epoch swap), and the final state — served and recovered — must
// account for every acknowledged delete.
func TestDeleteConcurrentWithRelearnAndCheckpoint(t *testing.T) {
	fx := newTypedFixture(t, 256, 55)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := CreateDurable(dir, idx, &DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 30
	for i := 0; i < workers*per; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	a := d.Adaptive()
	insertRange := NewQuery(4).WithRange(0, insertBase, insertBase+1_000_000)
	// Warm the query sample so forced relearns have a workload to train on.
	for i := 0; i < 8; i++ {
		d.Execute(insertRange, NewCount())
	}

	var deleted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n, err := d.Delete(NewQuery(4).WithEquals(0, int64(insertBase+w*per+i)))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				deleted.Add(n)
			}
		}()
	}
	// Readers: epochs monotonic, counts in the delete region non-increasing.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			lastEpoch := int64(-1)
			lastCount := int64(workers*per + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ep := a.Epoch(); ep < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", ep, lastEpoch)
					return
				} else {
					lastEpoch = ep
				}
				agg := NewCount()
				d.Execute(insertRange, agg)
				if got := agg.Result(); got > lastCount {
					t.Errorf("count increased %d -> %d: deleted rows resurrected", lastCount, got)
					return
				} else {
					lastCount = got
				}
			}
		}()
	}
	// Lifecycle churn: forced relearns, merges, and checkpoints mid-flight.
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			a.TriggerRelearn()
		} else {
			a.TriggerMerge()
		}
		a.Wait()
		if err := d.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	a.Wait()

	if got := deleted.Load(); got != workers*per {
		t.Fatalf("acked %d deletes, want %d", got, workers*per)
	}
	agg := NewCount()
	d.Execute(insertRange, agg)
	if agg.Result() != 0 {
		t.Fatalf("%d inserted rows survived full deletion", agg.Result())
	}
	if err := d.Checkpoint(); err != nil {
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
	agg.Reset()
	re.Execute(insertRange, agg)
	if agg.Result() != 0 {
		t.Fatalf("recovery resurrected %d deleted rows", agg.Result())
	}
	if got := baseRows(re); got != 256 {
		t.Fatalf("base data damaged: %d of 256 rows", got)
	}
}

// BenchmarkValueVictims times the two places a delete record is resolved by
// value, each record naming 20,000 rows of a 500,000-row table: half of them
// base rows, half recent inserts. replay is OpenDurable recovering the record
// (none is the same recovery without it, to subtract); swap is the end of a
// merge the delete landed during, which re-applies it to the merged index
// (half the inserts came before the merge captured the log, half after).
// box deletes a narrow range of one dimension; scattered deletes rows picked
// at random by id, whose values bound most of the table.
//
//	go test . -run '^$' -bench ValueVictims -benchtime 5x
func BenchmarkValueVictims(b *testing.B) {
	const baseN, logN, span = 500_000, 10_000, 20_000
	rng := rand.New(rand.NewSource(26))
	cols := make([][]int64, 4)
	for i := 0; i < baseN; i++ {
		cols[0] = append(cols[0], rng.Int63n(1_000_000))
		cols[1] = append(cols[1], rng.Int63n(1000))
		cols[2] = append(cols[2], rng.Int63n(1_000_000))
		cols[3] = append(cols[3], rng.Int63n(100))
	}
	tbl, err := NewTable([]string{"a", "b", "c", "d"}, cols)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *Flood {
		f, err := BuildWithLayout(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{64, 16}, SortDim: 2, Flatten: true}, nil)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	inserted := make([][]int64, logN) // every one inside the box
	for i := range inserted {
		inserted[i] = []int64{rng.Int63n(span), rng.Int63n(1000), rng.Int63n(1_000_000), rng.Int63n(100)}
	}
	var ids []int64
	for _, r := range rng.Perm(baseN)[:logN] {
		ids = append(ids, int64(r))
	}
	for i := 0; i < logN; i++ {
		ids = append(ids, baseN+int64(i))
	}
	deletes := []struct {
		name string
		del  func(s *AdaptiveIndex) (int64, error)
	}{
		{"box", func(s *AdaptiveIndex) (int64, error) { return s.Delete(NewQuery(4).WithRange(0, 0, span-1)) }},
		{"scattered", func(s *AdaptiveIndex) (int64, error) { return s.DeleteRows(ids) }},
		{"none", nil},
	}
	insert := func(s *AdaptiveIndex, rows [][]int64) {
		for _, row := range rows {
			if err := s.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, dc := range deletes {
		b.Run("replay/"+dc.name, func(b *testing.B) {
			dir := b.TempDir()
			d, err := CreateDurable(dir, build(), &DurableOptions{Sync: SyncNever, Adaptive: &AdaptiveConfig{MergeFraction: -1}})
			if err != nil {
				b.Fatal(err)
			}
			insert(d, inserted)
			if dc.del != nil {
				if n, err := dc.del(d); err != nil || n < logN {
					b.Fatalf("deleted %d rows, %v", n, err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cp := copyDir(b, dir)
				b.StartTimer()
				re, _, err := OpenDurable(cp, &DurableOptions{Sync: SyncNever, Adaptive: &AdaptiveConfig{MergeFraction: -1}})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				re.Close()
				os.RemoveAll(cp)
				b.StartTimer()
			}
		})
	}
	for _, dc := range deletes[:2] {
		b.Run("swap/"+dc.name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				a := NewAdaptiveIndex(build(), &AdaptiveConfig{MergeFraction: -1})
				insert(a, inserted[:logN/2])
				entered, release := make(chan struct{}), make(chan struct{})
				a.testHookBuilt = func() {
					close(entered)
					<-release
				}
				if !a.TriggerMerge() {
					b.Fatal("the merge did not start")
				}
				<-entered
				insert(a, inserted[logN/2:])
				n, err := dc.del(a)
				if err != nil || n < logN {
					b.Fatalf("deleted %d rows, %v", n, err)
				}
				b.StartTimer()
				close(release)
				a.Wait()
				b.StopTimer()
				if got, want := a.LiveRows(), baseN+logN-int(n); got != want {
					b.Fatalf("%d rows live after the swap, want %d", got, want)
				}
				a.Close()
			}
		})
	}
}

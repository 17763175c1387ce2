package flood

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"flood/internal/wal"
)

// allTuples is every live row of a raw-table store, sorted.
func allTuples(idx interface {
	Select(q Query, cols ...string) (*Rows, Stats)
}, nd int) []string {
	rows, _ := idx.Select(NewQuery(nd))
	defer rows.Close()
	return tuplesOf(rows)
}

// TestShardedUpdateBadAssignmentTouchesNothing pins validate-before-touch for
// an Update that moves rows across shards: an out-of-range column elsewhere
// in the SET list is an error that leaves every shard as it was. (The
// three-phase form found it only after deleting every matching row.)
func TestShardedUpdateBadAssignmentTouchesNothing(t *testing.T) {
	mem, _, ds, _ := shardedUnderTest(t, 4)
	dur, _, _ := createShardedStore(t, t.TempDir())
	defer dur.Close()
	nd := ds.Table.NumCols()
	dateCol := ds.ColumnIndex("date")
	for name, s := range map[string]*ShardedIndex{"memory": mem, "durable": dur} {
		q := NewQuery(nd).WithRange(dateCol, 10, 200)
		if countOf(t, s, q) == 0 {
			t.Fatalf("%s: the predicate matches nothing", name)
		}
		live, before := s.LiveRows(), allTuples(s, nd)
		for _, bad := range []int{nd, -1} {
			n, err := s.Update(q, []Assignment{{Col: s.SplitDim(), Value: 1}, {Col: bad, Value: 7}})
			if err == nil || n != 0 {
				t.Fatalf("%s: Update assigning column %d = %d, %v; want an error and 0", name, bad, n, err)
			}
		}
		if got := s.LiveRows(); got != live {
			t.Errorf("%s: a rejected Update left %d live rows, had %d", name, got, live)
		}
		if !slices.Equal(allTuples(s, nd), before) {
			t.Errorf("%s: a rejected Update changed the table", name)
		}
	}
}

// TestShardedUpdateMoveConcurrentMutators races split-moving Updates against
// writers inserting and deleting rows the Update's predicate matches. A shard
// tombstones its victims and hands back their rewritten copies in one lock
// hold, so whatever the interleaving every acknowledged insert is in the
// store exactly once — moved or not — and every acknowledged delete stays
// deleted. (Select-then-Delete lost the rows inserted between the two and
// resurrected the rows deleted between them.) Run under -race.
func TestShardedUpdateMoveConcurrentMutators(t *testing.T) {
	s, _, ds, _ := shardedUnderTest(t, 4)
	nd := ds.Table.NumCols()
	dim := s.SplitDim()
	splits := s.Splits()
	if len(splits) == 0 {
		t.Skip("the split column collapsed to one shard")
	}
	// Test rows are recognisable by a tag no dataset row carries, in a column
	// that is not the split dimension; they start just below the first split
	// point, in shard 0, and the Update sends them to the last shard.
	const tagBase = int64(1) << 50
	tag := (dim + 1) % nd
	first, target := splits[0]-1, splits[len(splits)-1]
	tagged := NewQuery(nd).WithRange(tag, tagBase, tagBase+1<<30)
	movers := tagged.WithRange(dim, first-7, first)
	rowFor := func(id int64) []int64 {
		row := make([]int64, nd)
		row[dim], row[tag] = first-id%8, tagBase+id
		return row
	}

	const writers, perWriter = 4, 300
	// Writer w owns ids [w*perWriter, (w+1)*perWriter): deleted[id] is set
	// once a Delete of that row has been acknowledged with one row affected.
	var deleted [writers * perWriter]bool
	var writing, updating sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var own []int64
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				if err := s.Insert(rowFor(id)); err != nil {
					t.Error(err)
					return
				}
				own = append(own, id)
				if rng.Intn(3) != 0 {
					continue
				}
				k := rng.Intn(len(own))
				victim := own[k]
				own = slices.Delete(own, k, k+1)
				// Wherever the row lives by now, it carries its tag. A delete
				// that finds nothing caught the row between its old shard and
				// its new one; the row is then still owed.
				n, err := s.Delete(NewQuery(nd).WithRange(tag, tagBase+victim, tagBase+victim))
				if err != nil || n > 1 {
					t.Errorf("Delete of row %d = %d, %v", victim, n, err)
					return
				}
				deleted[victim] = n == 1
			}
		}(w)
	}
	updating.Add(1)
	go func() {
		defer updating.Done()
		for !stop.Load() {
			if _, err := s.Update(movers, []Assignment{{Col: dim, Value: target}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writing.Wait()
	stop.Store(true)
	updating.Wait()

	held := map[int64]int{}
	rows, _ := s.Select(tagged)
	for rows.Next() {
		held[rows.Int64(tag)-tagBase]++
	}
	rows.Close()
	for id, dead := range deleted {
		switch n := held[int64(id)]; {
		case dead && n != 0:
			t.Errorf("row %d was deleted and acknowledged, yet the store holds it %d times", id, n)
		case !dead && n != 1:
			t.Errorf("row %d was inserted and never deleted, yet the store holds it %d times", id, n)
		}
	}
}

// TestWALGoldenMutationScript pins the log's bytes: a fixed script of every
// kind of mutation on a DurableIndex writes a WAL segment whose hash was
// recorded at the commit before the mutation paths were folded into one
// apply — same framing, same record order, so old logs replay unchanged —
// and a store reopened from that log equals the live one.
func TestWALGoldenMutationScript(t *testing.T) {
	const golden = "099bbdddec47e540dd558a7cd891234d93da4f37db176e7a08131a4d1b7f6eef"
	fx := newTypedFixture(t, 3000, 77)
	base, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := CreateDurable(dir, base, &DurableOptions{
		Sync:     SyncNever,
		Adaptive: &AdaptiveConfig{MergeFraction: -1, DriftFactor: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sch := fx.schema
	must := func(n int64, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	enc := func(col string, v any) Assignment {
		c := sch.ColumnIndex(col)
		e, err := sch.encodeValue(c, v)
		if err != nil {
			t.Fatal(err)
		}
		return Assignment{Col: c, Value: e}
	}
	for i := 0; i < 40; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Insert([]int64{1, 2}); err == nil { // rejected: must leave no record
		t.Fatal("a two-value row was accepted")
	}
	must(d.Delete(sch.Where().WithIntRange("ts", 10_000, 12_000).Query()))                                // base rows
	must(d.Delete(sch.Where().WithStringEquals("city", "oakland").WithFloatRange("fare", 0, 40).Query())) // base and log
	must(d.Update(sch.Where().WithIntRange("ts", 50_000, 51_000).Query(), []Assignment{enc("fare", 12.5), enc("city", "nyc")}))
	must(d.Update(sch.Where().WithFloatRange("fare", 12.5, 12.5).Query(), []Assignment{enc("ts", int64(7))}))      // rewrites log rows
	must(d.Update(sch.Where().WithIntRange("ts", 99_999_999, 99_999_999).Query(), []Assignment{enc("fare", 1.0)})) // matches nothing
	rows, _ := d.Select(sch.Where().WithIntRange("ts", 20_000, 20_600).Query())
	var ids []int64
	for rows.Next() {
		ids = append(ids, rows.RowID())
	}
	rows.Close()
	slices.Sort(ids)
	if len(ids) == 0 {
		t.Fatal("the DeleteRows victims matched nothing")
	}
	must(d.DeleteRows(append(ids, ids[0], -5)))
	for i := 40; i < 50; i++ {
		if err := d.Insert(insertedRow(fx, i)); err != nil {
			t.Fatal(err)
		}
	}

	seg, err := os.ReadFile(filepath.Join(dir, wal.SegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(seg)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("WAL segment of %d bytes hashes to %s, recorded %s", len(seg), got, golden)
	}

	re, rep, err := OpenDurable(copyDir(t, dir), &DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.TruncatedTail {
		t.Error("a cleanly written log was truncated on replay")
	}
	if a, b := allTuples(d, 4), allTuples(re, 4); !slices.Equal(a, b) {
		t.Errorf("the live store holds %d rows, the one replayed from its log %d, and they differ", len(a), len(b))
	}
}

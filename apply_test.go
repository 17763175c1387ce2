package flood

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"flood/internal/colstore"
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

// refValueVictims is by-value victim resolution written the slow, obvious
// way: one pass over the base rows and then the log's first logN, in
// physical order, taking each live row whose values a still-unmatched tuple
// names.
func refValueVictims(ep *adaptiveEpoch, tuples [][]int64, logN int64) (baseRows, logRows []int) {
	want := map[string]int{}
	for _, tp := range tuples {
		want[fmt.Sprint(tp)]++
	}
	take := func(n int, dead *colstore.Tombstones, row func(r int) []int64) (rows []int) {
		for r := 0; r < n; r++ {
			if k := fmt.Sprint(row(r)); !dead.Has(r) && want[k] > 0 {
				want[k]--
				rows = append(rows, r)
			}
		}
		return rows
	}
	t := ep.flood.Table()
	baseRows = take(t.NumRows(), ep.flood.idx.Tombstones(), func(r int) []int64 { return rowValues(t.Get, t.NumCols(), r) })
	// The log's rows come from decode, not from get, which byValue reads.
	logCols := ep.log.decode(0, logN)
	logRows = take(int(logN), ep.log.tomb.Load(), func(r int) []int64 {
		return rowValues(func(c, r int) int64 { return logCols[c][r] }, t.NumCols(), r)
	})
	return baseRows, logRows
}

// TestValueVictimsMatchReference is the property behind WAL replay and the
// swap's re-applied deletes: on small tables where most rows share their
// values, with random base and log tombstones, a list of value tuples —
// repeated, absent, in any order — names exactly the rows refValueVictims
// names (the first k live equal rows, base before log), in ascending order,
// and leaves the list itself as it was. Every third table is wide instead:
// few rows share values, and a list names up to a hundred distinct tuples
// copied from the log, the shape of a bulk delete of recent inserts.
func TestValueVictimsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 150; trial++ {
		wide := trial%3 == 2
		domain := 1 + rng.Int63n(4)
		if wide {
			domain = 100 + rng.Int63n(200)
		}
		draw := func() []int64 { return []int64{rng.Int63n(domain) - domain/2, rng.Int63n(domain), rng.Int63n(2)} }
		n := 1 + rng.Intn(300)
		cols := make([][]int64, 3)
		for i := 0; i < n; i++ {
			for c, v := range draw() {
				cols[c] = append(cols[c], v)
			}
		}
		tbl, err := NewTable([]string{"a", "b", "c"}, cols)
		if err != nil {
			t.Fatal(err)
		}
		f, err := BuildWithLayout(tbl, Layout{GridDims: []int{0}, GridCols: []int{1 + rng.Intn(4)}, SortDim: 1, Flatten: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAdaptiveIndex(f, &AdaptiveConfig{MergeFraction: -1})
		inserts := rng.Intn(150)
		if wide {
			inserts = 150 + rng.Intn(250)
		}
		for i := inserts; i > 0; i-- {
			if err := a.Insert(draw()); err != nil {
				t.Fatal(err)
			}
		}
		ep := a.epoch.Load()
		logRows := ep.log.rows()
		var baseDead, logDead []int
		for r := 0; r < n; r++ {
			if rng.Intn(3) == 0 {
				baseDead = append(baseDead, r)
			}
		}
		for r := 0; r < int(logRows); r++ {
			if rng.Intn(3) == 0 {
				logDead = append(logDead, r)
			}
		}
		ep.flood.idx.DeleteRows(baseDead)
		ep.log.deleteRows(logDead, logRows)

		for probe := 0; probe < 8; probe++ {
			var tuples [][]int64
			count := rng.Intn(16)
			if wide {
				count = rng.Intn(100)
			}
			for i := count; i > 0; i-- {
				switch tp := draw(); {
				case wide && rng.Intn(4) != 0:
					r := rng.Intn(int(logRows))
					for c := range tp {
						tp[c] = ep.log.get(c, r)
					}
					tuples = append(tuples, tp)
				case len(tuples) > 0 && rng.Intn(3) == 0:
					tuples = append(tuples, slices.Clone(tuples[rng.Intn(len(tuples))]))
				case rng.Intn(6) == 0:
					tp[rng.Intn(3)] = domain + rng.Int63n(3) // no row holds it
					tuples = append(tuples, tp)
				default:
					tuples = append(tuples, tp)
				}
			}
			logN := rng.Int63n(logRows + 1)
			before := fmt.Sprint(tuples)
			gotBase, gotLog := ep.victims(mutation{tuples: tuples}, logN)
			wantBase, wantLog := refValueVictims(ep, tuples, logN)
			if !slices.Equal(gotBase, wantBase) || !slices.Equal(gotLog, wantLog) {
				t.Fatalf("trial %d probe %d: tuples %v over %d base rows and %d of %d log rows:\nbase %v, want %v\nlog  %v, want %v",
					trial, probe, tuples, n, logN, logRows, gotBase, wantBase, gotLog, wantLog)
			}
			if after := fmt.Sprint(tuples); after != before {
				t.Fatalf("trial %d probe %d: resolving reordered the caller's tuples: %s, was %s", trial, probe, after, before)
			}
		}
		a.Close()
	}
}

// TestWALGoldenMutationScript pins the log's bytes: a fixed script of every
// kind of mutation on a DurableIndex writes a WAL segment whose hash was
// recorded at the commit before the mutation paths were folded into one
// apply — same framing, same record order, so old logs replay unchanged —
// and a store reopened from that log equals the live one. A delete record
// lists its victims, and an update re-inserts its rows, in the base index's
// physical order, so the base has no grid dimension and sorts by pickup:
// its physical order is the rows sorted by pickup time, the fixture's few
// equal times in input order, which no change to the grid cut can move. The
// hash was re-recorded once for that base: the segment kept its 13,861
// bytes and its 115 records, each of the same kind and length, and each
// delete the same victims and each update the same re-inserted rows, listed
// in another order.
func TestWALGoldenMutationScript(t *testing.T) {
	const golden = "8af5ab037881b3bccf583ae722cb73e4f9714934aad3cf3fa7c7810cbfea5af6"
	fx := newTypedFixture(t, 3000, 77)
	base, err := BuildWithLayout(fx.tbl, Layout{SortDim: 3}, &Options{Schema: fx.schema})
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

package flood

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"flood/internal/wal"
)

// confRow is one logical row of the conformance fixture.
type confRow struct {
	ts     int64
	fare   float64
	city   string
	pickup time.Time
}

// confFacade is one facade under the conformance table, held only as an
// Index — and, the mutable ones, as a Store: every check drives it through
// the interfaces and the package-level helpers, never through a concrete type.
type confFacade struct {
	name string
	idx  Index
	live []confRow // the oracle: rows a query may observe
	// store is the same facade as a Store; nil for the immutable Flood, which
	// has no lifecycle.
	store Store
	// dir is the facade's durable directory; "" for the in-memory ones.
	dir string
}

// walBytes is the total size of every WAL segment under the facade's
// directory (the stores run SyncNever, so an append is in the file as soon as
// it returns).
func (f *confFacade) walBytes(t *testing.T) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(f.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, ok := wal.ParseSegmentName(d.Name()); ok {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rewrite applies an Update to the oracle and returns how many rows it hit.
func (f *confFacade) rewrite(p confPredicate, set func(r *confRow)) int64 {
	var n int64
	for i := range f.live {
		if p.match(f.live[i]) {
			set(&f.live[i])
			n++
		}
	}
	return n
}

// confPredicate pairs a query with its brute-force check.
type confPredicate struct {
	q     Query
	match func(r confRow) bool
}

func (f *confFacade) brute(preds ...confPredicate) []string {
	var out []string
	for _, r := range f.live {
		for _, p := range preds {
			if p.match(r) {
				out = append(out, rowTuple(r.ts, r.fare, r.city, r.pickup))
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// confFacades builds every facade over one 20k-row typed table. The
// mutable ones carry pending inserts (marked by a fare far outside the
// fixture's domain, spread over the whole ts range so every shard holds
// some) and tombstones in both the base and the insert log. The inserts come
// in three bands: 96 at fare 500+, then enough padding at 700+ to push every
// log — each shard's too — past its first 2,048-row sealed segment, then 48
// at 900+ that therefore sit in each log's unsealed suffix.
func confFacades(t *testing.T) (*typedFixture, []*confFacade) {
	t.Helper()
	fx := newTypedFixture(t, 20_000, 91)
	base := make([]confRow, len(fx.ts))
	for i := range base {
		base[i] = confRow{fx.ts[i], fx.fare[i], fx.city[i], fx.pickup[i]}
	}
	var extra []confRow
	for i := 0; i < 96; i++ {
		extra = append(extra, confRow{
			ts:     int64(i) * 1000,
			fare:   500 + float64(i)/100,
			city:   fixtureCities[i%len(fixtureCities)],
			pickup: time.Date(2023, 1, 1+i%28, 0, 0, 0, 0, time.UTC),
		})
	}
	for i := 0; i < 4*2200; i++ {
		extra = append(extra, confRow{
			ts:     int64(i*11) % 100_000,
			fare:   700 + float64(i%100)/100,
			city:   fixtureCities[i%len(fixtureCities)],
			pickup: time.Date(2023, 2, 1+i%28, 0, 0, 0, 0, time.UTC),
		})
	}
	for i := 0; i < 48; i++ {
		extra = append(extra, confRow{
			ts:     int64(i)*2000 + 7,
			fare:   900 + float64(i%3*10) + float64(i)/100,
			city:   fixtureCities[i%len(fixtureCities)],
			pickup: time.Date(2023, 3, 1+i%28, 0, 0, 0, 0, time.UTC),
		})
	}
	build := func() *Flood {
		f, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	quiet := &AdaptiveConfig{MergeFraction: -1, DriftFactor: 1e12}
	sharded := &ShardedOptions{
		Dim:      0,
		Splits:   []int64{25_000, 50_000, 75_000},
		Build:    &Options{Schema: fx.schema, CalibrationLayouts: 2, GDSteps: 3, Seed: 92},
		Adaptive: quiet,
	}
	train := []Query{
		fx.schema.Where().WithIntRange("ts", 0, 30_000).Query(),
		fx.schema.Where().WithStringEquals("city", "nyc").WithFloatRange("fare", 1, 20).Query(),
	}
	// The four mutable stores are held as a Store from here on.
	mutable := func(name string, s Store, dir string) *confFacade {
		t.Cleanup(func() { s.Close() })
		return &confFacade{name: name, idx: s, store: s, dir: dir}
	}

	var out []*confFacade
	out = append(out, &confFacade{name: "Flood", idx: build()})
	out = append(out, mutable("AdaptiveIndex", NewAdaptiveIndex(build(), quiet), ""))

	dir := t.TempDir()
	d, err := CreateDurable(dir, build(), &DurableOptions{Sync: SyncNever, Adaptive: quiet})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutable("DurableIndex", d, dir))

	s, err := NewSharded(fx.tbl, train, sharded)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutable("ShardedIndex", s, ""))

	dir = t.TempDir()
	sd, err := CreateShardedDurable(dir, fx.tbl, train, sharded, &DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mutable("ShardedIndex/durable", sd, dir))

	denver := fx.schema.Where().WithStringEquals("city", "denver").Query()
	for _, f := range out {
		f.live = slices.Clone(base)
		if ins, ok := f.idx.(Inserter); ok {
			for _, r := range extra {
				row, err := fx.schema.EncodeRow(r.ts, r.fare, r.city, r.pickup)
				if err != nil {
					t.Fatal(err)
				}
				if err := ins.Insert(row); err != nil {
					t.Fatalf("%s: insert: %v", f.name, err)
				}
			}
			f.live = append(f.live, extra...)
		}
		want := int64(len(f.live))
		f.live = slices.DeleteFunc(f.live, func(r confRow) bool { return r.city == "denver" })
		want -= int64(len(f.live))
		if n, err := f.idx.(Deleter).Delete(denver); err != nil || n != want {
			t.Fatalf("%s: Delete(denver) = %d, %v; want %d", f.name, n, err, want)
		}
	}
	return fx, out
}

// drain reads a cursor projected over every fixture column into sorted
// tuples plus the row ids in cursor order, and closes it.
func drain(t *testing.T, rows *Rows) (tuples []string, ids []int64) {
	t.Helper()
	defer rows.Close()
	for rows.Next() {
		tuples = append(tuples, rowTuple(rows.Int64(0), rows.Float64(1), rows.String(2), rows.Time(3)))
		ids = append(ids, rows.RowID())
	}
	slices.Sort(tuples)
	return tuples, ids
}

// TestFacadeConformance runs one table of checks over every facade, each
// held only as an Index and driven through the package-level helpers: the
// facades serve one query surface, so they must agree on all of it.
func TestFacadeConformance(t *testing.T) {
	fx, facades := confFacades(t)
	sch := fx.schema
	bg := context.Background()

	cheapNYC := confPredicate{
		sch.Where().WithStringEquals("city", "nyc").WithFloatRange("fare", 1.5, 9.99).Query(),
		func(r confRow) bool { return r.city == "nyc" && r.fare >= 1.5 && r.fare <= 9.99 },
	}
	midTS := confPredicate{
		sch.Where().WithIntRange("ts", 20_000, 60_000).WithStringEquals("city", "boston").Query(),
		func(r confRow) bool { return r.ts >= 20_000 && r.ts <= 60_000 && r.city == "boston" },
	}
	// inserted matches exactly the first band of pending inserts, in every
	// shard.
	inserted := confPredicate{
		sch.Where().WithFloatRange("fare", 500, 600).Query(),
		func(r confRow) bool { return r.fare >= 500 && r.fare <= 600 },
	}
	// The suffix predicates match only rows of the last band, which every
	// log holds past a sealed segment that matches none of them: their ids
	// must still count the sealed rows in front.
	fareBand := func(lo, hi float64) confPredicate {
		return confPredicate{
			sch.Where().WithFloatRange("fare", lo, hi).Query(),
			func(r confRow) bool { return r.fare >= lo && r.fare <= hi },
		}
	}
	suffix, suffixLo, suffixHi := fareBand(900, 909), fareBand(910, 919), fareBand(920, 929)
	// lowA and lowB overlap, and both sit inside the first shard.
	lowA := confPredicate{
		sch.Where().WithIntRange("ts", 100, 900).Query(),
		func(r confRow) bool { return r.ts >= 100 && r.ts <= 900 },
	}
	lowB := confPredicate{
		sch.Where().WithIntRange("ts", 600, 1500).Query(),
		func(r confRow) bool { return r.ts >= 600 && r.ts <= 1500 },
	}
	all := confPredicate{sch.Where().Query(), func(confRow) bool { return true }}
	// assign is one SET clause, its literal encoded through the schema.
	assign := func(col string, v any) Assignment {
		c := sch.ColumnIndex(col)
		enc, err := sch.encodeValue(c, v)
		if err != nil {
			t.Fatal(err)
		}
		return Assignment{Col: c, Value: enc}
	}
	sameAsOracle := func(t *testing.T, f *confFacade) {
		t.Helper()
		rows, _ := sch.Select(f.idx, all.q)
		got, _ := drain(t, rows)
		if want := f.brute(all); !slices.Equal(got, want) {
			t.Fatalf("the store holds %d rows that differ from the oracle's %d", len(got), len(want))
		}
	}
	ors := [][]confPredicate{{cheapNYC, inserted}, {lowA, lowB}, {midTS, lowB, inserted}}
	queriesOf := func(preds []confPredicate) []Query {
		qs := make([]Query, len(preds))
		for i, p := range preds {
			qs[i] = p.q
		}
		return qs
	}

	checks := []struct {
		name string
		run  func(t *testing.T, f *confFacade)
	}{
		{"results equal brute force", func(t *testing.T, f *confFacade) {
			for i, p := range []confPredicate{cheapNYC, midTS, inserted, lowA, all} {
				want := f.brute(p)
				rows, _ := sch.Select(f.idx, p.q)
				if got, _ := drain(t, rows); !slices.Equal(got, want) {
					t.Errorf("Select %d: %d rows, brute force %d", i, len(got), len(want))
				}
				rows, _, err := sch.SelectContext(bg, f.idx, p.q, nil)
				if got, _ := drain(t, rows); err != nil || !slices.Equal(got, want) {
					t.Errorf("SelectContext %d: %d rows (err %v), brute force %d", i, len(got), err, len(want))
				}
			}
			for i, preds := range ors {
				want, qs := f.brute(preds...), queriesOf(preds)
				cnt := NewCount()
				if ExecuteOr(f.idx, qs, cnt); cnt.Result() != int64(len(want)) {
					t.Errorf("ExecuteOr %d: counted %d, brute force %d", i, cnt.Result(), len(want))
				}
				cnt.Reset()
				if _, err := ExecuteOrContext(bg, f.idx, qs, cnt); err != nil || cnt.Result() != int64(len(want)) {
					t.Errorf("ExecuteOrContext %d: counted %d (err %v), brute force %d", i, cnt.Result(), err, len(want))
				}
				rows, _ := sch.SelectOr(f.idx, qs)
				if got, _ := drain(t, rows); !slices.Equal(got, want) {
					t.Errorf("SelectOr %d: %d rows, brute force %d", i, len(got), len(want))
				}
				rows, _, err := sch.SelectOrContext(bg, f.idx, qs, nil)
				if got, _ := drain(t, rows); err != nil || !slices.Equal(got, want) {
					t.Errorf("SelectOrContext %d: %d rows (err %v), brute force %d", i, len(got), err, len(want))
				}
			}
		}},
		{"limit stops the scan", func(t *testing.T, f *confFacade) {
			const k = 5
			rows, full := sch.Select(f.idx, all.q)
			rows.Close()
			rows, st, err := sch.SelectContext(bg, f.idx, all.q, &QueryOptions{Limit: k})
			if n := rows.Len(); err != nil || n != k || st.Scanned*10 > full.Scanned {
				t.Errorf("SelectContext LIMIT %d: %d rows, scanned %d of %d (err %v)", k, n, st.Scanned, full.Scanned, err)
			}
			rows.Close()
			qs := queriesOf(ors[1])
			rows, full = sch.SelectOr(f.idx, qs)
			rows.Close()
			rows, st, err = sch.SelectOrContext(bg, f.idx, qs, &QueryOptions{Limit: k})
			if n := rows.Len(); err != nil || n != k || st.Scanned*4 > full.Scanned {
				t.Errorf("SelectOrContext LIMIT %d: %d rows, scanned %d of %d (err %v)", k, n, st.Scanned, full.Scanned, err)
			}
			rows.Close()
		}},
		{"a disjunction is one served query", func(t *testing.T, f *confFacade) {
			if f.store == nil {
				t.Skip("facade keeps no query count")
			}
			served := func() int64 { return f.store.Stats().Queries }
			qs := queriesOf(ors[1]) // two rectangles, one shard
			before := served()
			ExecuteOr(f.idx, qs, NewCount())
			if got := served() - before; got != 1 {
				t.Errorf("ExecuteOr of 2 rectangles counted %d served queries, want 1", got)
			}
			before = served()
			if _, err := ExecuteOrContext(bg, f.idx, qs, NewCount()); err != nil {
				t.Fatal(err)
			}
			rows, _, err := sch.SelectOrContext(bg, f.idx, qs, &QueryOptions{Limit: 3})
			if err != nil {
				t.Fatal(err)
			}
			rows.Close()
			if got := served() - before; got != 2 {
				t.Errorf("ExecuteOrContext + limited SelectOrContext counted %d served queries, want 2", got)
			}
		}},
		{"a pre-canceled context scans nothing", func(t *testing.T, f *confFacade) {
			ctx := canceledCtx()
			cnt := NewCount()
			st, err := f.idx.ExecuteContext(ctx, all.q, cnt)
			if !errors.Is(err, ErrCanceled) || st.Scanned != 0 || cnt.Result() != 0 {
				t.Errorf("ExecuteContext: err %v, scanned %d, counted %d", err, st.Scanned, cnt.Result())
			}
			st, err = ExecuteOrContext(ctx, f.idx, queriesOf(ors[0]), cnt)
			if !errors.Is(err, ErrCanceled) || st.Scanned != 0 || cnt.Result() != 0 {
				t.Errorf("ExecuteOrContext: err %v, scanned %d, counted %d", err, st.Scanned, cnt.Result())
			}
			rows, st, err := sch.SelectContext(ctx, f.idx, all.q, nil)
			if !errors.Is(err, ErrCanceled) || st.Scanned != 0 || rows.Len() != 0 {
				t.Errorf("SelectContext: err %v, scanned %d, %d rows", err, st.Scanned, rows.Len())
			}
			rows.Close()
			rows, st, err = sch.SelectOrContext(ctx, f.idx, queriesOf(ors[0]), nil)
			if !errors.Is(err, ErrCanceled) || st.Scanned != 0 || rows.Len() != 0 {
				t.Errorf("SelectOrContext: err %v, scanned %d, %d rows", err, st.Scanned, rows.Len())
			}
			rows.Close()
		}},
		// From here on the checks mutate; each leaves the store equal to the
		// oracle, and none empties a predicate a later check needs.
		{"update rewrites rows where they are", func(t *testing.T, f *confFacade) {
			up, ok := f.idx.(Updater)
			if !ok {
				t.Skip("facade has no insert path")
			}
			// The split dimension is untouched, and the rewritten rows still
			// match the predicate: each must be rewritten exactly once.
			want := f.rewrite(cheapNYC, func(r *confRow) { r.fare = 3.25 })
			n, err := up.Update(cheapNYC.q, []Assignment{assign("fare", 3.25)})
			if err != nil || n != want || want == 0 {
				t.Fatalf("Update(fare) = %d, %v; brute force %d", n, err, want)
			}
			sameAsOracle(t, f)
			// No assignments at all is still an Update, not a Delete.
			if n, err := up.Update(cheapNYC.q, nil); err != nil || n != want {
				t.Fatalf("Update with an empty SET list = %d, %v; want %d", n, err, want)
			}
			sameAsOracle(t, f)
			// The last band of pending rows sits past each log's first sealed
			// segment, so their victims are resolved in the unsealed suffix.
			late := fareBand(900, 929)
			want = f.rewrite(late, func(r *confRow) { r.city = "nyc" })
			n, err = up.Update(late.q, []Assignment{assign("city", "nyc")})
			if err != nil || n != want || want == 0 {
				t.Fatalf("Update(pending suffix) = %d, %v; brute force %d", n, err, want)
			}
			sameAsOracle(t, f)
		}},
		{"update moves rows across shards", func(t *testing.T, f *confFacade) {
			up, ok := f.idx.(Updater)
			if !ok {
				t.Skip("facade has no insert path")
			}
			// midTS spans three shards; the new value lands in the middle one,
			// still inside the predicate, so a rewritten row re-inserted too
			// early would be rewritten twice and counted twice.
			want := f.rewrite(midTS, func(r *confRow) { r.ts = 30_000 })
			n, err := up.Update(midTS.q, []Assignment{assign("ts", int64(30_000))})
			if err != nil || n != want || want == 0 {
				t.Fatalf("Update(ts into a covered shard) = %d, %v; brute force %d", n, err, want)
			}
			sameAsOracle(t, f)
			// And out of every shard the predicate reaches, with a second
			// column assigned along the way.
			out := confPredicate{
				sch.Where().WithIntRange("ts", 2_000, 3_000).Query(),
				func(r confRow) bool { return r.ts >= 2_000 && r.ts <= 3_000 },
			}
			want = f.rewrite(out, func(r *confRow) { r.ts, r.fare = 90_000, 1.5 })
			n, err = up.Update(out.q, []Assignment{assign("ts", int64(90_000)), assign("fare", 1.5)})
			if err != nil || n != want || want == 0 {
				t.Fatalf("Update(ts out of the predicate) = %d, %v; brute force %d", n, err, want)
			}
			sameAsOracle(t, f)
		}},
		{"a wrong-width insert is rejected before it is logged", func(t *testing.T, f *confFacade) {
			ins, ok := f.idx.(Inserter)
			if !ok {
				t.Skip("facade has no insert path")
			}
			var logged int64
			if f.dir != "" {
				logged = f.walBytes(t)
			}
			for _, row := range [][]int64{{1, 2, 3}, {1, 2, 3, 4, 5}, nil} {
				if err := ins.Insert(row); err == nil {
					t.Errorf("Insert of %d values into 4 columns succeeded", len(row))
				}
			}
			if f.dir != "" && f.walBytes(t) != logged {
				t.Errorf("rejected inserts grew the WAL from %d to %d bytes", logged, f.walBytes(t))
			}
			sameAsOracle(t, f)
		}},
		{"DeleteRows skips repeated, dead and out-of-range ids", func(t *testing.T, f *confFacade) {
			del := f.idx.(interface {
				DeleteRows(ids []int64) (int64, error)
			})
			victims := confPredicate{
				sch.Where().WithIntRange("ts", 40_000, 40_400).Query(),
				func(r confRow) bool { return r.ts >= 40_000 && r.ts <= 40_400 },
			}
			rows, _ := sch.Select(f.idx, victims.q)
			_, ids := drain(t, rows)
			if len(ids) == 0 {
				t.Fatal("victim query matched nothing")
			}
			noisy := append(slices.Clone(ids), ids...)
			noisy = append(noisy, -1, 1<<62, 3<<shardStrideBits+1<<30, 900<<shardStrideBits)
			if n, err := del.DeleteRows(noisy); err != nil || n != int64(len(ids)) {
				t.Fatalf("DeleteRows(%d ids, %d distinct and live) = %d, %v", len(noisy), len(ids), n, err)
			}
			if n, err := del.DeleteRows(ids); err != nil || n != 0 {
				t.Fatalf("DeleteRows of dead ids = %d, %v; want 0", n, err)
			}
			f.live = slices.DeleteFunc(f.live, victims.match)
			sameAsOracle(t, f)
		}},
		// Last: it deletes the rows the suffix predicates need.
		{"select ids round-trip through DeleteRows", func(t *testing.T, f *confFacade) {
			del := f.idx.(interface {
				DeleteRows(ids []int64) (int64, error)
			})
			// The last victim is a disjunction whose two pieces both reach
			// the unsealed suffix, each through its own encoding of it.
			for i, preds := range [][]confPredicate{{inserted}, {lowA}, {suffix}, {suffixLo, suffixHi}} {
				rows, _ := sch.SelectOr(f.idx, queriesOf(preds))
				want, ids := drain(t, rows)
				if _, mutable := f.idx.(Inserter); len(ids) == 0 && (mutable || i == 1) {
					t.Fatalf("victim query %d matched nothing", i)
				}
				n, err := del.DeleteRows(ids)
				if err != nil || n != int64(len(ids)) {
					t.Fatalf("DeleteRows(%d ids) = %d, %v", len(ids), n, err)
				}
				if !slices.Equal(want, f.brute(preds...)) {
					t.Fatalf("victim query %d disagreed with brute force before the delete", i)
				}
				for _, p := range preds {
					f.live = slices.DeleteFunc(f.live, p.match)
				}
				// The victims are gone and nothing else is: had an id named
				// the wrong row, a victim would survive and the total would
				// still drop.
				rows, _ = sch.SelectOr(f.idx, queriesOf(preds))
				if left, _ := drain(t, rows); len(left) != 0 {
					t.Errorf("victim query %d still matches %d rows after DeleteRows", i, len(left))
				}
				rows, _ = sch.Select(f.idx, all.q)
				if got, _ := drain(t, rows); !slices.Equal(got, f.brute(all)) {
					t.Errorf("after DeleteRows %d the store holds %d rows, brute force %d", i, len(got), len(f.brute(all)))
				}
			}
		}},
		// The lifecycle rows: what Store guarantees beyond queries and writes.
		{"checkpoint is nil in memory and reopens from a directory", func(t *testing.T, f *confFacade) {
			if f.store == nil {
				t.Skip("facade has no lifecycle")
			}
			if err := f.store.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if f.dir == "" {
				sameAsOracle(t, f)
				return
			}
			// The store is still open: reopen a copy of what it left on disk.
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(f.dir)); err != nil {
				t.Fatal(err)
			}
			re, rep, err := OpenStore(dir, &DurableOptions{Sync: SyncNever})
			if err != nil {
				t.Fatalf("OpenStore of a checkpointed directory: %v", err)
			}
			defer re.Close()
			if reflect.TypeOf(re) != reflect.TypeOf(f.store) || re.NumShards() != f.store.NumShards() || len(rep.Shards) != re.NumShards() {
				t.Fatalf("reopened a %T of %d shards (%d reports) from the directory of a %T of %d",
					re, re.NumShards(), len(rep.Shards), f.store, f.store.NumShards())
			}
			if rep.ReplayedRows != 0 {
				t.Errorf("replayed %d records past a checkpoint that absorbed the log", rep.ReplayedRows)
			}
			was, now := f.store.Stats(), re.Stats()
			if was.BaseRows+was.PendingRows != now.BaseRows+now.PendingRows || re.LiveRows() != len(f.live) {
				t.Errorf("reopened %d base + %d pending rows (%d live), the store held %d + %d (%d live)",
					now.BaseRows, now.PendingRows, re.LiveRows(), was.BaseRows, was.PendingRows, len(f.live))
			}
			sameAsOracle(t, &confFacade{idx: re, live: f.live})
		}},
		{"close twice is safe and leaves queries valid", func(t *testing.T, f *confFacade) {
			if f.store == nil {
				t.Skip("facade has no lifecycle")
			}
			for i := 0; i < 2; i++ {
				if err := f.store.Close(); err != nil {
					t.Fatalf("Close %d: %v", i+1, err)
				}
			}
			// After Close an in-memory store keeps taking writes; a durable
			// one refuses them and Checkpoint, and touches no log: a write it
			// acknowledged without logging would be gone on reopen.
			durable := f.dir != ""
			var logged int64
			if durable {
				logged = f.walBytes(t)
			}
			r := f.live[0]
			row, err := fx.schema.EncodeRow(r.ts, r.fare, r.city, r.pickup)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.store.Insert(row); (err != nil) != durable {
				t.Fatalf("Insert after Close = %v; want an error only over a directory", err)
			}
			if _, err := f.store.Delete(fx.schema.Where().WithStringEquals("city", "denver").Query()); (err != nil) != durable {
				t.Fatalf("Delete after Close = %v; want an error only over a directory", err)
			}
			if err := f.store.Checkpoint(); (err != nil) != durable {
				t.Fatalf("Checkpoint after Close = %v; want an error only over a directory", err)
			}
			if !durable {
				f.live = append(f.live, r)
			} else if n := f.walBytes(t); n != logged {
				t.Fatalf("the WAL grew from %d to %d bytes after Close", logged, n)
			}
			sameAsOracle(t, f)
		}},
	}
	for _, f := range facades {
		for _, c := range checks {
			t.Run(f.name+"/"+c.name, func(t *testing.T) { c.run(t, f) })
		}
	}

	// Only "no store here" reads as fs.ErrNotExist — the signal to create one.
	t.Run("OpenStore/a directory with no store is fs.ErrNotExist", func(t *testing.T) {
		for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "missing")} {
			if s, _, err := OpenStore(dir, nil); s != nil || !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("OpenStore(%s) = %v, %v; want an error that is fs.ErrNotExist", dir, s, err)
			}
		}
	})
	t.Run("OpenStore/a store missing a file is not", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(facades[len(facades)-1].dir)); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, shardDirName(2), snapshotFile)); err != nil {
			t.Fatal(err)
		}
		if s, _, err := OpenStore(dir, nil); s != nil || err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("OpenStore of a sharded store without shard 2's snapshot = %v, %v; want a failure that is not fs.ErrNotExist", s, err)
		}
	})
}

package flood

import (
	"math/rand"
	"testing"
	"time"

	"flood/internal/dataset"
	"flood/internal/workload"
)

func buildSmall(t *testing.T) (*Flood, *dataset.Dataset, []Query) {
	t.Helper()
	ds := dataset.Sales(6000, 201)
	queries := workload.Standard(ds, 30, 202)
	idx, err := Build(ds.Table, queries, &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 203})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds, queries
}

// TestUnmergedInsertAndQuery drives the explicitly-merged insert buffer: an
// AdaptiveIndex with automatic merges off.
func TestUnmergedInsertAndQuery(t *testing.T) {
	idx, ds, queries := buildSmall(t)
	d := unmerged(t, idx)
	if d.NumRows() != 6000 || d.Stats().PendingRows != 0 {
		t.Fatal("fresh index counts wrong")
	}
	// Insert rows cloned from the dataset with a recognizable marker on
	// the date dimension.
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(204))
	const added = 300
	for i := 0; i < added; i++ {
		src := rng.Intn(6000)
		row := make([]int64, ds.Table.NumCols())
		for c := range row {
			row[c] = ds.Cols[c][src]
		}
		row[dateCol] = 5000 + int64(i) // far outside the original domain
		if err := d.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if p := d.Stats().PendingRows; p != added || d.NumRows() != 6000+added {
		t.Fatalf("pending %d rows, want %d", p, added)
	}
	// A query isolating the inserted rows.
	agg := NewCount()
	d.Execute(NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000), agg)
	if agg.Result() != added {
		t.Fatalf("inserted-row query found %d, want %d", agg.Result(), added)
	}
	// Pre-existing queries still agree with the bare index plus delta.
	for _, q := range queries[:5] {
		if q.Ranges[dateCol].Present && q.Ranges[dateCol].Max >= 5000 {
			continue
		}
		a1, a2 := NewCount(), NewCount()
		idx.Execute(q, a1)
		d.Execute(q, a2)
		if a2.Result() < a1.Result() {
			t.Fatalf("query over base + pending lost rows: %d < %d", a2.Result(), a1.Result())
		}
	}
	// Merge folds everything into the base.
	mergeNow(t, d)
	if d.Index().Table().NumRows() != 6000+added || d.NumRows() != 6000+added {
		t.Fatalf("after merge: base %d rows, total %d", d.Index().Table().NumRows(), d.NumRows())
	}
	agg.Reset()
	d.Execute(NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000), agg)
	if agg.Result() != added {
		t.Fatalf("post-merge query found %d, want %d", agg.Result(), added)
	}
}

func TestMonitorDetectsDrift(t *testing.T) {
	m := newMonitor(0, 2)
	// Establish a ~100µs reference window.
	for i := 0; i < driftWindow; i++ {
		if m.record(Stats{Total: 100 * time.Microsecond}) {
			t.Fatal("monitor fired while establishing reference")
		}
	}
	if ref, _ := m.state(); ref == 0 {
		t.Fatal("reference not established")
	}
	// Mild noise must not fire.
	for i := 0; i < driftWindow; i++ {
		if m.record(Stats{Total: 150 * time.Microsecond}) {
			t.Fatal("monitor fired on mild noise")
		}
	}
	// A sustained 5x regression must fire within a window.
	fired := false
	for i := 0; i < driftWindow; i++ {
		if m.record(Stats{Total: 500 * time.Microsecond}) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("monitor failed to detect a 5x regression")
	}
}

// TestMonitorUsesPredictedCost: an adaptive generation's monitor takes its
// reference from the index's predicted cost and its factor from the config.
func TestMonitorUsesPredictedCost(t *testing.T) {
	idx, _, _ := buildSmall(t)
	a := NewAdaptiveIndex(idx, &AdaptiveConfig{DriftFactor: 1000}) // absurd factor: never fires
	defer a.Close()
	m := a.epoch.Load().mon
	if ref, _ := m.state(); ref == 0 || ref != idx.PredictedCost() {
		t.Fatalf("monitor reference %v, want the predicted cost %v", ref, idx.PredictedCost())
	}
	for i := 0; i < 2*driftWindow; i++ {
		if m.record(Stats{Total: time.Millisecond}) {
			t.Fatal("factor 1000 should never fire here")
		}
	}
}

package flood

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// tuplesOf drains a Rows cursor into sorted all-column value strings, the
// physical-order-independent image of a result set.
func tuplesOf(rows *Rows) []string {
	ncols := len(rows.Columns())
	var out []string
	for rows.Next() {
		s := ""
		for j := 0; j < ncols; j++ {
			s += fmt.Sprintf("%d|", rows.Int64(j))
		}
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// TestAdaptiveSelectEquivalenceAcrossRelearn pins row retrieval across a
// relearn swap: the same Select returns the same rows before and after the
// background rebuild publishes a new layout (physical ids change with the
// reorder; the value tuples must not). Runs in the CI race matrix.
func TestAdaptiveSelectEquivalenceAcrossRelearn(t *testing.T) {
	a, ds, queries := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(401))
	const added = 150
	for i := 0; i < added; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	marker := NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)
	probes := append([]Query{marker}, queries[:8]...)

	before := make([][]string, len(probes))
	for i, q := range probes {
		rows, _ := a.Select(q)
		before[i] = tuplesOf(rows)
		rows.Close()
	}
	if len(before[0]) != added {
		t.Fatalf("marker select found %d rows before swap, want %d", len(before[0]), added)
	}

	if !a.TriggerRelearn() {
		t.Fatal("forced relearn did not start")
	}
	a.Wait()
	st := a.Stats()
	if st.Relearns != 1 || st.LastError != nil {
		t.Fatalf("relearns = %d, err = %v", st.Relearns, st.LastError)
	}
	if st.PendingRows != 0 {
		t.Fatalf("relearn left %d rows pending", st.PendingRows)
	}

	for i, q := range probes {
		rows, _ := a.Select(q)
		after := tuplesOf(rows)
		rows.Close()
		if !slices.Equal(after, before[i]) {
			t.Fatalf("probe %d: %d rows after swap, %d before", i, len(after), len(before[i]))
		}
	}
}

// TestAdaptiveSelectSeesInsertLog pins that Select reads the current
// generation's insert log (its sealed blocks and its partial block) with log
// ids offset past the base.
func TestAdaptiveSelectSeesInsertLog(t *testing.T) {
	a, ds, _ := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(402))
	const added = 3000 // 23 sealed blocks and a partial one
	for i := 0; i < added; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	marker := NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)
	rows, _ := a.Select(marker)
	defer rows.Close()
	if rows.Len() != added {
		t.Fatalf("select found %d log rows, want %d", rows.Len(), added)
	}
	baseRows := int64(ds.Table.NumRows())
	for rows.Next() {
		if rows.RowID() < baseRows {
			t.Fatalf("marker row id %d inside the base range (< %d)", rows.RowID(), baseRows)
		}
		if v := rows.Int64(dateCol); v < 5000 || v > 6000 {
			t.Fatalf("marker row decoded date %d", v)
		}
	}
}

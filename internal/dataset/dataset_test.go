package dataset

import "testing"

func TestGeneratorsShapes(t *testing.T) {
	cases := []struct {
		ds   *Dataset
		dims int
	}{
		{Sales(5000, 1), 6},
		{TPCH(5000, 2), 7},
		{OSM(5000, 3), 6},
		{perfmon(5000, 4), 6},
	}
	for _, c := range cases {
		if c.ds.Table.NumRows() != 5000 {
			t.Fatalf("%s: rows = %d", c.ds.Name, c.ds.Table.NumRows())
		}
		if c.ds.Table.NumCols() != c.dims {
			t.Fatalf("%s: cols = %d, want %d", c.ds.Name, c.ds.Table.NumCols(), c.dims)
		}
		for i := 0; i < c.dims; i++ {
			if len(c.ds.Cols[i]) != 5000 {
				t.Fatalf("%s: raw col %d len %d", c.ds.Name, i, len(c.ds.Cols[i]))
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := TPCH(1000, 42)
	b := TPCH(1000, 42)
	for c := range a.Cols {
		for i := range a.Cols[c] {
			if a.Cols[c][i] != b.Cols[c][i] {
				t.Fatalf("same seed produced different data at col %d row %d", c, i)
			}
		}
	}
	c := TPCH(1000, 43)
	same := true
	for i := range a.Cols[2] {
		if a.Cols[2][i] != c.Cols[2][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical quantity column")
	}
}

func TestTPCHInvariants(t *testing.T) {
	ds := TPCH(20000, 7)
	ship := ds.Cols[ds.ColumnIndex("shipdate")]
	receipt := ds.Cols[ds.ColumnIndex("receiptdate")]
	qty := ds.Cols[ds.ColumnIndex("quantity")]
	disc := ds.Cols[ds.ColumnIndex("discount")]
	price := ds.Cols[ds.ColumnIndex("extendedprice")]
	prevOrder := int64(-1)
	order := ds.Cols[ds.ColumnIndex("orderkey")]
	for i := range ship {
		if receipt[i] <= ship[i] || receipt[i] > ship[i]+30 {
			t.Fatalf("row %d: receiptdate %d not in (shipdate, shipdate+30]", i, receipt[i])
		}
		if qty[i] < 1 || qty[i] > 50 {
			t.Fatalf("row %d: quantity %d out of [1,50]", i, qty[i])
		}
		if disc[i] < 0 || disc[i] > 10 {
			t.Fatalf("row %d: discount %d out of [0,10]", i, disc[i])
		}
		if price[i] < qty[i]*90000 || price[i] > qty[i]*110000 {
			t.Fatalf("row %d: extendedprice %d inconsistent with quantity", i, price[i])
		}
		if order[i] < prevOrder {
			t.Fatalf("row %d: orderkey not non-decreasing", i)
		}
		prevOrder = order[i]
	}
}

func TestOSMSpatialClustering(t *testing.T) {
	ds := OSM(30000, 8)
	lat := ds.Cols[ds.ColumnIndex("lat")]
	// NYC cluster should hold a large share of points: count within
	// +-0.5 degrees of 40.71.
	near := 0
	for _, v := range lat {
		if v > 40_210_000 && v < 41_210_000 {
			near++
		}
	}
	if frac := float64(near) / float64(len(lat)); frac < 0.2 {
		t.Fatalf("NYC latitude band holds only %.1f%% of points; want clustering", frac*100)
	}
}

func TestPerfmonSkew(t *testing.T) {
	ds := perfmon(30000, 9)
	swap := ds.Cols[ds.ColumnIndex("swap")]
	zeros := 0
	for _, v := range swap {
		if v == 0 {
			zeros++
		}
	}
	if frac := float64(zeros) / float64(len(swap)); frac < 0.7 {
		t.Fatalf("swap should be mostly zero, got %.1f%%", frac*100)
	}
	machine := ds.Cols[ds.ColumnIndex("machine")]
	counts := map[int64]int{}
	for _, m := range machine {
		counts[m]++
	}
	most := 0
	for _, c := range counts {
		if c > most {
			most = c
		}
	}
	if float64(most)/float64(len(machine)) < 0.05 {
		t.Fatal("machine distribution should be Zipf-skewed")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		ds := ByName(name, 500, 1)
		if ds == nil || ds.Name != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if ByName("nope", 500, 1) != nil {
		t.Fatal("unknown name should return nil")
	}
}

package flood

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"flood/internal/costmodel"
	"flood/internal/dataset"
	"flood/internal/optimizer"
	"flood/internal/workload"
)

var updatePaperGolden = flag.Bool("update", false, "rewrite testdata/paper_golden.txt from the current indexes")

const paperGoldenPath = "testdata/paper_golden.txt"

// The comparison's fixed inputs, the repository benchmark's learn_build
// (benchmark/data.go, benchmark/inprocess.go) at full scale: the data and
// workload seeds, the search effort and the frozen model's seed. With them
// every layout, and so every row count below, repeats exactly.
const (
	paperRows      = 100_000
	paperDataSeed  = 1
	paperBuildSeed = 7
	paperModelSeed = 20240611 // benchmark/frozen.go's frozenModelSeed
)

// paperIndex is one index's pass over a dataset's held-out queries.
type paperIndex struct {
	name, layout            string
	scanned, matched, cells int64
	perQueryMatched         []int64
}

// paperSet is one dataset's row of the comparison.
type paperSet struct {
	name    string
	queries int
	indexes []paperIndex // Flood, the eight baselines, then Flood's neighbourhood
}

// TestPaperComparison is the paper's headline comparison (§7.2–7.3, Figs.
// 7–8) as a recorded artifact: Flood, laid out exactly as the repository
// benchmark's learn_build lays it out, against every baseline of §7.2 tuned
// to the same training queries, on the four datasets at 100k rows. Times
// vary with the host; rows scanned do not once the layout is fixed, so the
// test compares each index's layout and its rows scanned, rows matched and
// cells visited over the held-out queries with testdata/paper_golden.txt.
// Flood's neighbourhood — each grid dimension's columns doubled and halved,
// and each other filtered dimension as the sort dimension — shows what the
// learned layout trades. Rewrite the golden with `go test . -run
// TestPaperComparison -update` only for an intended change; docs/BENCHMARKS.md
// quotes its table (TestPaperTableInDocs).
func TestPaperComparison(t *testing.T) {
	model := frozenCostModel(t)
	names := dataset.Names()
	sets := make([]*paperSet, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[i], errs[i] = comparePaperSet(name, model)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sets {
		want := s.indexes[0].perQueryMatched
		for _, x := range s.indexes[1:] {
			if !slices.Equal(x.perQueryMatched, want) {
				t.Errorf("%s: %s %s matches other rows than Flood", s.name, x.name, x.layout)
			}
		}
	}

	got := renderPaperGolden(sets)
	if *updatePaperGolden {
		if err := os.WriteFile(paperGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(wantBytes), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", paperGoldenPath, i+1, g, w)
		}
	}
}

// TestPaperTableInDocs keeps the comparison table docs/BENCHMARKS.md quotes
// equal to the golden's.
func TestPaperTableInDocs(t *testing.T) {
	golden, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := os.ReadFile("docs/BENCHMARKS.md")
	if err != nil {
		t.Fatal(err)
	}
	want := paperTable(string(golden))
	if want == "" {
		t.Fatalf("%s has no table", paperGoldenPath)
	}
	if !strings.Contains(string(docs), want) {
		t.Fatalf("docs/BENCHMARKS.md does not quote %s's table:\n%s", paperGoldenPath, want)
	}
}

// paperTable returns the golden's Markdown table: its lines that start
// with "|".
func paperTable(golden string) string {
	var b strings.Builder
	for line := range strings.Lines(golden) {
		if strings.HasPrefix(line, "|") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// frozenCostModel trains the repository benchmark's frozen cost model: the
// committed calibration samples and the benchmark's model seed.
func frozenCostModel(t *testing.T) *CostModel {
	t.Helper()
	raw, err := os.ReadFile("benchmark/calibration.json")
	if err != nil {
		t.Fatal(err)
	}
	var cf struct {
		Samples []costmodel.Sample `json:"samples"`
	}
	if err := json.Unmarshal(raw, &cf); err != nil {
		t.Fatal(err)
	}
	m, err := costmodel.Train(cf.Samples, paperModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// comparePaperSet builds and runs every index of one dataset.
func comparePaperSet(name string, model *CostModel) (*paperSet, error) {
	ds := dataset.ByName(name, paperRows, paperDataSeed)
	train, test := workload.SplitTrainTest(workload.Standard(ds, 200, paperDataSeed+1), 0.5, paperDataSeed+2)
	res, err := optimizer.FindOptimalLayout(ds.Table, train, model, optimizer.Config{
		QuerySampleSize: 25, GDSteps: 5, Seed: paperBuildSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: layout search: %w", name, err)
	}
	s := &paperSet{name: name, queries: len(test)}
	run := func(label, layout string, idx Index) {
		x := paperIndex{name: label, layout: layout, perQueryMatched: make([]int64, len(test))}
		agg := NewCount()
		for i, q := range test {
			agg.Reset()
			st := idx.Execute(q, agg)
			x.scanned += st.Scanned
			x.matched += st.Matched
			x.cells += st.CellsVisited
			x.perQueryMatched[i] = st.Matched
		}
		s.indexes = append(s.indexes, x)
	}
	buildFlood := func(l Layout) (Index, error) {
		idx, err := BuildWithLayout(ds.Table, l, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: building %v: %w", name, l, err)
		}
		return idx, nil
	}
	fl, err := buildFlood(res.Layout)
	if err != nil {
		return nil, err
	}
	run("flood", res.Layout.String(), fl)

	dims := workload.OrderBySelectivity(workload.NewGenerator(ds, paperDataSeed), train)
	for _, kind := range baselines() {
		idx, err := BuildBaseline(kind, ds.Table, BaselineOptions{Dims: dims})
		if err != nil {
			return nil, fmt.Errorf("%s: baseline %s: %w", name, kind, err)
		}
		layout := fmt.Sprintf("dims%v", dims)
		switch kind {
		case FullScan:
			layout = "-"
		case Clustered:
			layout = fmt.Sprintf("sort=%d", dims[0])
		}
		run(string(kind), layout, idx)
	}

	for _, l := range floodNeighbours(res.Layout, test) {
		idx, err := buildFlood(l)
		if err != nil {
			return nil, err
		}
		run("flood~", l.String(), idx)
	}
	return s, nil
}

// floodNeighbours returns the layouts one step from l: each grid
// dimension's columns doubled and halved, and each other dimension a query
// filters as the sort dimension — swapping places with the sort dimension
// when it is a grid dimension, replacing it otherwise.
func floodNeighbours(l Layout, queries []Query) []Layout {
	var out []Layout
	clone := func() Layout {
		c := l
		c.GridDims = slices.Clone(l.GridDims)
		c.GridCols = slices.Clone(l.GridCols)
		return c
	}
	for i, cols := range l.GridCols {
		for _, c := range []int{cols * 2, cols / 2} {
			if c >= 1 && c != cols {
				n := clone()
				n.GridCols[i] = c
				out = append(out, n)
			}
		}
	}
	filtered := make([]bool, len(queries[0].Ranges))
	for _, q := range queries {
		for _, d := range q.FilteredDims() {
			filtered[d] = true
		}
	}
	for d, f := range filtered {
		if !f || d == l.SortDim {
			continue
		}
		n := clone()
		switch i := slices.Index(n.GridDims, d); {
		case i >= 0 && l.SortDim >= 0:
			n.GridDims[i] = l.SortDim
		case i >= 0:
			n.GridDims = slices.Delete(n.GridDims, i, i+1)
			n.GridCols = slices.Delete(n.GridCols, i, i+1)
		}
		n.SortDim = d
		out = append(out, n)
	}
	return out
}

// renderPaperGolden writes one line per index and dataset, then the table
// of rows scanned that docs/BENCHMARKS.md quotes.
func renderPaperGolden(sets []*paperSet) string {
	var b strings.Builder
	b.WriteString(`# Flood against the baselines of §7.2 on the datasets of §7.3: the output of
# TestPaperComparison (paper_test.go). Each dataset has 100,000 rows (data
# seed 1) and 200 queries of its standard workload (seed 2), split half and
# half (seed 3). Flood's layout is searched over the training half with the
# repository benchmark's frozen cost model, as learn_build searches it; the
# baselines index the dimensions most selective first under the training
# half. Each line: dataset, index, layout, then the sums over the held-out
# half of rows scanned, rows matched and cells, pages or leaves visited.
# "flood~" lines are Flood's neighbourhood: one grid dimension's columns
# doubled or halved, or another filtered dimension as the sort dimension.
`)
	for _, s := range sets {
		fmt.Fprintf(&b, "\n# %s: %d held-out queries\n", s.name, s.queries)
		width := 0
		for _, x := range s.indexes {
			width = max(width, len(x.layout))
		}
		for _, x := range s.indexes {
			fmt.Fprintf(&b, "%-8s %-9s %-*s  scanned %9d  matched %7d  cells %6d\n",
				s.name, x.name, width, x.layout, x.scanned, x.matched, x.cells)
		}
	}

	b.WriteString("\n# Rows scanned over the held-out queries: Flood's per query, every\n# baseline's as a multiple of Flood's.\n\n")
	b.WriteString("| index |")
	for _, s := range sets {
		fmt.Fprintf(&b, " %s |", s.name)
	}
	b.WriteString("\n|---|")
	for range sets {
		b.WriteString("---:|")
	}
	b.WriteString("\n| Flood, rows a query |")
	for _, s := range sets {
		fmt.Fprintf(&b, " %.0f |", float64(s.indexes[0].scanned)/float64(s.queries))
	}
	b.WriteString("\n")
	for j := 1; j <= len(baselines()); j++ {
		fmt.Fprintf(&b, "| %s, × Flood |", sets[0].indexes[j].name)
		for _, s := range sets {
			fmt.Fprintf(&b, " %.2f |", float64(s.indexes[j].scanned)/float64(s.indexes[0].scanned))
		}
		b.WriteString("\n")
	}
	return b.String()
}

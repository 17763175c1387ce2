package bench

import (
	"bytes"
	"strings"
	"testing"
)

// smokeCfg runs every experiment end-to-end at a tiny scale; this is the
// integration test for the whole repository (all indexes, the optimizer,
// the cost model, and the report generators).
func smokeCfg(buf *bytes.Buffer) Config {
	return Config{
		Scale:              12_000,
		Queries:            24,
		Seed:               7,
		CalibrationLayouts: 3,
		PageSizes:          []int{512},
		Fast:               true,
		Out:                buf,
	}.WithDefaults()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12a", "fig12b",
		"fig13", "fig14", "fig15", "fig16",
		"table1", "table2", "table3", "table4",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
}

func runSmoke(t *testing.T, id string, expect ...string) {
	t.Helper()
	var buf bytes.Buffer
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	if err := e.Run(smokeCfg(&buf)); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 40 {
		t.Fatalf("%s produced almost no output:\n%s", id, out)
	}
	for _, want := range expect {
		if !strings.Contains(out, want) {
			t.Fatalf("%s output missing %q:\n%s", id, want, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) { runSmoke(t, "table1", "sales", "tpch", "osm", "perfmon") }
func TestFig5Smoke(t *testing.T)   { runSmoke(t, "fig5", "not a constant") }
func TestFig7Smoke(t *testing.T)   { runSmoke(t, "fig7", "Flood", "fullscan", "kdtree") }
func TestFig8Smoke(t *testing.T)   { runSmoke(t, "fig8", "Flood", "page=") }
func TestFig9Smoke(t *testing.T)   { runSmoke(t, "fig9", "Flood", "FD") }
func TestFig10Smoke(t *testing.T)  { runSmoke(t, "fig10", "median improvement") }
func TestFig11Smoke(t *testing.T)  { runSmoke(t, "fig11", "Simple Grid", "+Learning") }
func TestFig12aSmoke(t *testing.T) { runSmoke(t, "fig12a", "records") }
func TestFig12bSmoke(t *testing.T) { runSmoke(t, "fig12b", "selectivity") }
func TestFig13Smoke(t *testing.T)  { runSmoke(t, "fig13", "FullScan ratio") }
func TestFig14Smoke(t *testing.T)  { runSmoke(t, "fig14", "learned optimum") }
func TestFig15Smoke(t *testing.T)  { runSmoke(t, "fig15", "data sample") }
func TestFig16Smoke(t *testing.T)  { runSmoke(t, "fig16", "query sample") }
func TestTable2Smoke(t *testing.T) { runSmoke(t, "table2", "SO", "TPS") }
func TestTable3Smoke(t *testing.T) { runSmoke(t, "table3", "model \\ layout") }
func TestTable4Smoke(t *testing.T) { runSmoke(t, "table4", "Flood Learning", "Flood Loading") }

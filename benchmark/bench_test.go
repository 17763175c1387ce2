package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkContract is BENCHMARK.json with every key the contract allows.
type benchmarkContract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables keeps BENCHMARK.json and the tables the harness
// emits from in step, and inside the contract's limits.
func TestContractMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkContract
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(body) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(body))
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the limits", len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(c.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range c.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || d.Layer == "" || d.Moves == "" {
			t.Errorf("per-layer %s: unit %q layer %q moves %q", m.Name, m.Unit, d.Layer, d.Moves)
		}
	}
}

// TestQuickRuns runs every workload at the quick scale, untraced and traced,
// and checks that each emits its whole metric list from a correct run, and
// that the two runs, each of which learns its layouts from scratch with the
// frozen model, agree on the layouts and on every exact count.
func TestQuickRuns(t *testing.T) {
	model, err := frozenModel()
	if err != nil {
		t.Fatal(err)
	}
	h := harness{sc: quickScale, model: model, env: captureEnvironment(), outDir: t.TempDir()}
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			var runs [2]*result
			for i, traced := range []bool{false, true} {
				res := h.execute(def, 1, 1, traced)
				runs[i] = res
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d: %v", traced, res.Correct, res.Failed, res.Attempted, res.Problems)
				}
				defs, err := emitted(res)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if !traced && res.Metrics[d.Name] <= 0 {
						t.Errorf("end-to-end %s = %v, want a positive measurement", d.Name, res.Metrics[d.Name])
					}
				}
				for name := range res.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
				}
			}
			n := len(runs[0].Layouts)
			if n == 0 || !slices.Equal(runs[0].Layouts, runs[1].Layouts[:n]) {
				t.Errorf("layouts differ between two builds:\n%v\n%v", runs[0].Layouts, runs[1].Layouts)
			}
			for name, v := range runs[0].Counts {
				if w, ok := runs[1].Counts[name]; ok && v != w {
					t.Errorf("count %s differs between two builds: %v, %v", name, v, w)
				}
			}
			if _, ok := runs[0].Counts["query.scanned_per_query"]; !ok && def.Name != "serve_read" && def.Name != "serve_mixed" {
				t.Error("no query.scanned_per_query count to compare")
			}
		})
	}
}

// TestCheckFlagsRegression feeds -check a base and a candidate that is 30%
// slower on one metric.
func TestCheckFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		var set []*result
		for i := 0; i < 5; i++ {
			set = append(set, &result{Workload: "olap_flat", Seed: 1, Correct: true, Layouts: []string{"flat: x"},
				Metrics: map[string]float64{"query_p50_us": p50 * (1 + 0.002*float64(i))}, Counts: map[string]float64{"query.scanned_per_query": 10}})
		}
		path := dir + "/" + name
		if err := appendResults(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 100), write("b.json", 101), write("c.json", 130)
	if ok, err := checkSets("../BENCHMARK.json", base, same, io.Discard); err != nil || !ok {
		t.Errorf("equal sets: ok=%v err=%v", ok, err)
	}
	if ok, err := checkSets("../BENCHMARK.json", base, slow, io.Discard); err != nil || ok {
		t.Errorf("30%% slower candidate: ok=%v err=%v, want a regression", ok, err)
	}
}

// TestReferenceClock checks that the reference clock moves forward at a
// plausible rate and that a stretch of busy work reads about the same in
// reference time however the stretch is cut into instants.
func TestReferenceClock(t *testing.T) {
	start := now()
	var pieces time.Duration
	var sink uint64
	prev := start
	for range 200 {
		clock.tick(time.Now())
		sink += spin(spinBuf, spinReps)
		next := now()
		if next.ref < prev.ref {
			t.Fatalf("reference clock went back: %v then %v", prev.ref, next.ref)
		}
		pieces += next.Sub(prev)
		prev = next
	}
	whole := prev.Sub(start)
	if diff := (pieces - whole).Abs(); diff > whole/1000 {
		t.Errorf("200 pieces add up to %v, the whole stretch reads %v", pieces, whole)
	}
	_ = sink
	wall := prev.wall.Sub(start.wall)
	if rate := float64(whole) / float64(wall); rate < 0.1 || rate > 3 {
		t.Errorf("%v of reference time in %v of wall time: rate %.3f", whole, wall, rate)
	}
}

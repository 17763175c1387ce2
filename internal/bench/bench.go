// Package bench regenerates the tables and figures of the paper's evaluation
// (§7) at a configurable scale: every one but Fig. 17, whose per-cell models
// the engine replaced by exact structures. Each experiment is registered
// under the paper artifact's ID (fig7, table2, ...) and prints the same
// rows/series the paper reports; cmd/floodbench drives them and
// bench_test.go wraps them as Go benchmarks.
//
// Absolute numbers depend on the machine and the (scaled-down) dataset
// sizes; the shapes — which index wins, by roughly what factor, where
// crossovers fall — are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Scale is the base dataset row count (default 150k). The paper used
	// 30M-300M rows; experiments scale linearly.
	Scale int
	// Queries is the per-workload query count (default 120).
	Queries int
	// Seed drives all data/workload/layout randomness.
	Seed int64
	// Out receives the experiment's report (default: caller supplies).
	Out io.Writer
	// CalibrationLayouts for cost-model training (default 6 at bench
	// scale; the paper used 10).
	CalibrationLayouts int
	// PageSizes tried when tuning page-based baselines (default
	// {512, 2048, 8192}).
	PageSizes []int
	// Fast trims sweeps (fewer sizes, workloads, repetitions) for smoke
	// runs and Go benchmarks.
	Fast bool
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 150_000
	}
	if c.Queries <= 0 {
		c.Queries = 120
	}
	if c.Seed == 0 {
		c.Seed = 2020
	}
	if c.CalibrationLayouts <= 0 {
		c.CalibrationLayouts = 6
	}
	if len(c.PageSizes) == 0 {
		c.PageSizes = []int{512, 2048, 8192}
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

var registry []Experiment

func register(id, title string, run func(Config) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns every registered experiment sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

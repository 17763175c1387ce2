package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -check needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSet(path string) ([]*result, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*result
	if err := json.Unmarshal(body, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// spread is the width of a set's own scatter as a share of its median: the
// interquartile range with four or more runs, the full range with fewer.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / m
}

// checkSets compares result set B (the candidate) against A (the base) with
// the bounds of BENCHMARK.json: one row per workload and end-to-end metric.
// It reports ok=false on a regression, on an incorrect run, or when a count
// that must repeat exactly differs between runs of one seed.
func checkSets(benchPath, aPath, bPath string, w io.Writer) (bool, error) {
	body, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(body, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := loadSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadSet(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	values := func(set []*result, workload, metric string) []float64 {
		var v []float64
		for _, r := range set {
			if r.Workload == workload && !r.Traced {
				if x, has := r.Metrics[metric]; has {
					v = append(v, x)
				}
			}
		}
		return v
	}
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-14s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n", wl.Name, m.Name, ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
		if cause := exactMismatch(append(slices.Clone(a), b...), wl.Name); cause != "" {
			ok = false
			fmt.Fprintf(w, "%-13s MISMATCH %s: the likely cause of any difference above\n", wl.Name, cause)
		}
	}
	for _, r := range append(slices.Clone(a), b...) {
		if !r.Correct {
			ok = false
			fmt.Fprintf(w, "%-13s INCORRECT run (seed %d, traced %v): %s\n", r.Workload, r.Seed, r.Traced, strings.Join(r.Problems, "; "))
		}
	}
	return ok, nil
}

// exactMismatch compares layout strings and exact counts across all runs of
// one workload that share a seed, and names the first difference.
func exactMismatch(runs []*result, workload string) string {
	first := map[int64]*result{}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		ref, seen := first[r.Seed]
		if !seen {
			first[r.Seed] = r
			continue
		}
		// Traced runs add reference layouts; compare the common prefix.
		n := min(len(ref.Layouts), len(r.Layouts))
		if !slices.Equal(ref.Layouts[:n], r.Layouts[:n]) {
			return fmt.Sprintf("layouts differ at seed %d: %v vs %v", r.Seed, ref.Layouts[:n], r.Layouts[:n])
		}
		names := make([]string, 0, len(ref.Counts))
		for name := range ref.Counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got, has := r.Counts[name]; has && got != ref.Counts[name] {
				return fmt.Sprintf("count %s differs at seed %d: %v vs %v", name, r.Seed, ref.Counts[name], got)
			}
		}
	}
	return ""
}

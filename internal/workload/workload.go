// Package workload synthesizes the query workloads of §7.3–§7.4: per-dataset
// OLAP mixes with calibrated average selectivity (~0.1%), the workload
// archetypes of Fig. 9 (point lookups, uniform/skewed OLAP, mixed OLTP+OLAP,
// single-type, fewer-dims), and the random workloads of Fig. 10. It also
// ranks dimensions by their per-dimension selectivity, which the baseline
// tuners use.
package workload

import (
	"math"
	"math/rand"
	"sort"

	"flood/internal/dataset"
	"flood/internal/query"
)

// Template describes one query type: which dimensions it filters, the
// per-dimension selectivity fraction, and whether the filter is an equality.
type Template struct {
	Dims     []int
	Sels     []float64 // fraction of the column's values the range covers
	Equality []bool    // equality predicates ignore Sels for that dim
	Weight   float64   // relative frequency in the workload
}

// Generator draws queries against one dataset.
type Generator struct {
	ds     *dataset.Dataset
	rng    *rand.Rand
	quants [][]int64 // per column: sorted value sample for quantile lookups
	sample [][]int64 // column-major sample for selectivity calibration
}

const (
	quantSample = 8192
	calSample   = 8192
)

// NewGenerator prepares per-column quantile tables from ds.
func NewGenerator(ds *dataset.Dataset, seed int64) *Generator {
	g := &Generator{ds: ds, rng: rand.New(rand.NewSource(seed))}
	n := ds.Table.NumRows()
	d := ds.Table.NumCols()
	g.quants = make([][]int64, d)
	g.sample = make([][]int64, d)
	step := n / quantSample
	if step < 1 {
		step = 1
	}
	for c := 0; c < d; c++ {
		var s []int64
		for i := 0; i < n; i += step {
			s = append(s, ds.Cols[c][i])
		}
		g.sample[c] = s
		sorted := append([]int64(nil), s...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		g.quants[c] = sorted
	}
	return g
}

// quantile returns the value at fraction f of column c's distribution.
func (g *Generator) quantile(c int, f float64) int64 {
	qs := g.quants[c]
	i := int(f * float64(len(qs)))
	if i < 0 {
		i = 0
	}
	if i >= len(qs) {
		i = len(qs) - 1
	}
	return qs[i]
}

// FromTemplate draws one query from tp, placing each range at a random
// position within the column's distribution.
func (g *Generator) FromTemplate(tp Template) query.Query {
	q := query.NewQuery(g.ds.Table.NumCols())
	for i, d := range tp.Dims {
		if i < len(tp.Equality) && tp.Equality[i] {
			v := g.quantile(d, g.rng.Float64())
			q = q.WithEquals(d, v)
			continue
		}
		s := tp.Sels[i]
		if s > 1 {
			s = 1
		}
		u := g.rng.Float64() * (1 - s)
		lo := g.quantile(d, u)
		hi := g.quantile(d, u+s)
		if hi < lo {
			lo, hi = hi, lo
		}
		q = q.WithRange(d, lo, hi)
	}
	return q
}

// Selectivity measures the fraction of (sampled) rows matching q.
func (g *Generator) Selectivity(q query.Query) float64 {
	n := len(g.sample[0])
	if n == 0 {
		return 0
	}
	match := 0
	point := make([]int64, len(g.sample))
	for i := 0; i < n; i++ {
		for c := range g.sample {
			point[c] = g.sample[c][i]
		}
		if q.Matches(point) {
			match++
		}
	}
	return float64(match) / float64(n)
}

// Calibrated draws a query from tp and retries a bounded number of times
// until its measured selectivity is within a factor of 8 of target
// (correlated dimensions make analytic targeting inexact; the paper scales
// ranges the same way).
func (g *Generator) Calibrated(tp Template, target float64) query.Query {
	var q query.Query
	for attempt := 0; attempt < 12; attempt++ {
		q = g.FromTemplate(tp)
		sel := g.Selectivity(q)
		if sel >= target/8 && sel <= target*8 {
			return q
		}
		// Rescale range widths toward the target and retry.
		if sel > 0 {
			adj := math.Pow(target/sel, 1/float64(len(tp.Dims)))
			for i := range tp.Sels {
				tp.Sels[i] = clamp01(tp.Sels[i] * adj)
			}
		} else {
			for i := range tp.Sels {
				tp.Sels[i] = clamp01(tp.Sels[i] * 2)
			}
		}
	}
	return q
}

func clamp01(v float64) float64 {
	if v < 1e-6 {
		return 1e-6
	}
	if v > 1 {
		return 1
	}
	return v
}

// Draw samples n queries from weighted templates, calibrating each to the
// target selectivity.
func (g *Generator) Draw(templates []Template, n int, target float64) []query.Query {
	total := 0.0
	for _, tp := range templates {
		total += tp.Weight
	}
	out := make([]query.Query, 0, n)
	for len(out) < n {
		r := g.rng.Float64() * total
		acc := 0.0
		for _, tp := range templates {
			acc += tp.Weight
			if r < acc {
				cp := tp
				cp.Sels = append([]float64(nil), tp.Sels...)
				out = append(out, g.Calibrated(cp, target))
				break
			}
		}
	}
	return out
}

// evenSels distributes a joint selectivity target evenly over k range dims.
func evenSels(total float64, k int) []float64 {
	s := math.Pow(total, 1/float64(k))
	out := make([]float64, k)
	for i := range out {
		out[i] = s
	}
	return out
}

// dimSelectivities returns, per dimension, the average fraction of rows
// passing that dimension's filter over the queries that filter it (1.0 for
// dimensions never filtered). Lower = more selective.
func dimSelectivities(g *Generator, queries []query.Query) []float64 {
	d := len(g.sample)
	sums := make([]float64, d)
	counts := make([]int, d)
	for _, q := range queries {
		for dim, r := range q.Ranges {
			if !r.Present {
				continue
			}
			n := len(g.sample[dim])
			match := 0
			for i := 0; i < n; i++ {
				if r.Contains(g.sample[dim][i]) {
					match++
				}
			}
			sums[dim] += float64(match) / float64(n)
			counts[dim]++
		}
	}
	out := make([]float64, d)
	for dim := range out {
		if counts[dim] == 0 {
			out[dim] = 1
		} else {
			out[dim] = sums[dim] / float64(counts[dim])
		}
	}
	return out
}

// OrderBySelectivity returns dimensions sorted from most selective (lowest
// average passing fraction) to least, considering only dims filtered by at
// least one query; unfiltered dims follow in index order.
func OrderBySelectivity(g *Generator, queries []query.Query) []int {
	sels := dimSelectivities(g, queries)
	dims := make([]int, len(sels))
	for i := range dims {
		dims[i] = i
	}
	sort.SliceStable(dims, func(a, b int) bool { return sels[dims[a]] < sels[dims[b]] })
	return dims
}

// SplitTrainTest partitions queries into train/test sets drawn from the same
// distribution (§7.3).
func SplitTrainTest(queries []query.Query, trainFrac float64, seed int64) (train, test []query.Query) {
	rng := rand.New(rand.NewSource(seed))
	for _, q := range queries {
		if rng.Float64() < trainFrac {
			train = append(train, q)
		} else {
			test = append(test, q)
		}
	}
	if len(train) == 0 && len(queries) > 0 {
		train = queries[:1]
	}
	if len(test) == 0 && len(queries) > 0 {
		test = queries[len(queries)-1:]
	}
	return train, test
}

package costmodel

import "math"

// Search evaluates candidate layouts against one flattened workload for the
// layout search, reusing its scratch across evaluations. Not safe for
// concurrent use.
type Search struct {
	e   *Estimator
	m   *Model
	fqs []FlatQuery

	cs   []constraint // scratch: one query's constraints
	cols []float64    // scratch: the base candidate's columns with one perturbed

	// What Gradient caches for its base candidate: per query the sample
	// counts and where its rows end, and every row a one-dimension
	// perturbation can count.
	base []baseCounts
	rows []cachedRow
}

// baseCounts is one query's count under the base candidate; its cached rows
// are rows[previous end:end].
type baseCounts struct{ ns, exact, end int }

// cachedRow is a sample row that fails at most one constraint's scan bounds
// under the base candidate. Perturbing grid position gi moves only gi's
// bounds, so a row counts again exactly when it fails nothing else and passes
// gi's new bounds.
type cachedRow struct {
	row      int32
	scanFail int16 // -1: passes every constraint; else the gi of the only one it fails
	intFail  int16 // -1: interior to every constraint; gi: to all but that one; -2: never exact
}

// NewSearch binds the estimator to a model and a flattened workload.
func (e *Estimator) NewSearch(m *Model, fqs []FlatQuery) *Search {
	return &Search{e: e, m: m, fqs: fqs}
}

// Cost returns the model's average predicted query time (ns) for the
// workload under cand.
func (s *Search) Cost(cand Candidate) float64 {
	total := cand.NumCells()
	var sum float64
	for _, fq := range s.fqs {
		var hasResidual bool
		s.cs, hasResidual = s.e.constraints(fq, cand, s.cs[:0])
		ns, exact := s.e.count(s.cs, hasResidual)
		sum += s.m.PredictTime(s.e.features(fq, cand, total, ns, exact))
	}
	return sum / float64(len(s.fqs))
}

// Gradient writes to grad the central-difference gradient of Cost with
// respect to log(cols) at cand, with step h. Each of the 2·len(Cols)
// evaluations moves one dimension, so instead of counting the sample again it
// re-tests that dimension alone on the rows cached for cand.
func (s *Search) Gradient(cand Candidate, h float64, grad []float64) {
	s.cols = append(s.cols[:0], cand.Cols...)
	pert := cand
	pert.Cols = s.cols
	step := func(c, by float64) float64 { return math.Exp(math.Log(c) + by) }
	// The fewest columns any evaluation gives each dimension bound the
	// rows worth caching.
	for i, c := range cand.Cols {
		s.cols[i] = math.Min(c, math.Min(step(c, h), math.Max(1, step(c, -h))))
	}
	s.cacheRows(cand, pert)
	copy(s.cols, cand.Cols)
	for i, c := range cand.Cols {
		s.cols[i] = step(c, h)
		up := s.perturbedCost(pert, i)
		s.cols[i] = math.Max(1, step(c, -h))
		down := s.perturbedCost(pert, i)
		s.cols[i] = c
		grad[i] = (up - down) / (2 * h)
	}
}

// cacheRows fills the per-query cache for base: it walks the narrowest
// window under the fewest columns (the widest bounds), which holds every row
// any perturbed evaluation can count, and classifies each row against base's
// own bounds.
func (s *Search) cacheRows(base, fewest Candidate) {
	s.base, s.rows = s.base[:0], s.rows[:0]
	for _, fq := range s.fqs {
		var hasResidual bool
		s.cs, hasResidual = s.e.constraints(fq, fewest, s.cs[:0])
		rows := s.e.narrowest(s.cs)
		s.cs, _ = s.e.constraints(fq, base, s.cs[:0])
		ns, exact := 0, 0
		if len(s.cs) == 0 {
			ns, exact = s.e.count(s.cs, hasResidual)
		}
	scan:
		for _, r := range rows {
			cr := cachedRow{row: r, scanFail: -1, intFail: -1}
			if hasResidual {
				cr.intFail = -2
			}
			for i := range s.cs {
				c := &s.cs[i]
				u := s.e.flat[c.dim][r]
				if u < c.scanLo || u > c.scanHi {
					// A second failure, or one on the sort
					// dimension, which no perturbation moves.
					if cr.scanFail >= 0 || c.gi == len(base.GridDims) {
						continue scan
					}
					cr.scanFail = int16(c.gi)
				}
				if u < c.intLo || u > c.intHi {
					if cr.intFail == -1 {
						cr.intFail = int16(c.gi)
					} else {
						cr.intFail = -2
					}
				}
			}
			if cr.scanFail < 0 {
				ns++
				if cr.intFail == -1 {
					exact++
				}
			}
			s.rows = append(s.rows, cr)
		}
		s.base = append(s.base, baseCounts{ns, exact, len(s.rows)})
	}
}

// perturbedCost is Cost(pert) where pert differs from the cached base
// candidate in grid position gi only.
func (s *Search) perturbedCost(pert Candidate, gi int) float64 {
	total := pert.NumCells()
	dim := pert.GridDims[gi]
	var sum float64
	start := 0
	for q, fq := range s.fqs {
		ns, exact := s.base[q].ns, s.base[q].exact
		if fq.Present[dim] {
			c := gridConstraint(fq, gi, dim, pert.Cols[gi])
			vals := s.e.flat[dim]
			ns, exact = 0, 0
			for _, cr := range s.rows[start:s.base[q].end] {
				if cr.scanFail >= 0 && cr.scanFail != int16(gi) {
					continue
				}
				u := vals[cr.row]
				if u < c.scanLo || u > c.scanHi {
					continue
				}
				ns++
				if (cr.intFail == -1 || cr.intFail == int16(gi)) && !(u < c.intLo || u > c.intHi) {
					exact++
				}
			}
		}
		start = s.base[q].end
		sum += s.m.PredictTime(s.e.features(fq, pert, total, ns, exact))
	}
	return sum / float64(len(s.fqs))
}

package costmodel

import "testing"

// The external golden test (package costmodel_test, which may import the
// optimizer) runs its reference search over the oracle.

// PredictWorkloadReference is a Search's Cost over estimateReference.
func (e *Estimator) PredictWorkloadReference(m *Model, fqs []FlatQuery, cand Candidate) float64 {
	return e.predictWorkloadReference(m, fqs, cand)
}

// GradientReference is the search's numeric gradient over the oracle.
func (e *Estimator) GradientReference(m *Model, fqs []FlatQuery, cand Candidate) []float64 {
	return e.gradientReference(m, fqs, cand)
}

// SyntheticModel is the fixed-seed model of the equivalence tests.
func SyntheticModel(tb testing.TB) *Model { return syntheticModel(tb) }

// estimate computes the features q would produce under the candidate layout:
// Nc from the query rectangle and column counts, Ns and the exact fraction by
// counting sample rows inside the (smoothed) scan region and its interior.
func (e *Estimator) estimate(fq FlatQuery, cand Candidate) Features {
	var buf [8]constraint
	cs, hasResidual := e.constraints(fq, cand, buf[:0])
	ns, exact := e.count(cs, hasResidual)
	return e.features(fq, cand, cand.NumCells(), ns, exact)
}

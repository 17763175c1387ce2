package costmodel

import "testing"

// The external golden test (package costmodel_test, which may import the
// optimizer) runs its reference search over the oracle.

// PredictWorkloadReference is PredictWorkload over estimateReference.
func (e *Estimator) PredictWorkloadReference(m *Model, fqs []FlatQuery, cand Candidate) float64 {
	return e.predictWorkloadReference(m, fqs, cand)
}

// GradientReference is the search's numeric gradient over the oracle.
func (e *Estimator) GradientReference(m *Model, fqs []FlatQuery, cand Candidate) []float64 {
	return e.gradientReference(m, fqs, cand)
}

// SyntheticModel is the fixed-seed model of the equivalence tests.
func SyntheticModel(tb testing.TB) *Model { return syntheticModel(tb) }

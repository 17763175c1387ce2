package rmi

import (
	"fmt"

	"flood/internal/wire"
)

// Encode serializes the CDF model.
//
//api:keep core's load tests write the legacy CDF bucketer snapshots with it; it goes with this package
func (m *CDF) Encode(w *wire.Writer) {
	w.Tag("CDF1")
	w.F64(m.root.slope)
	w.F64(m.root.intercept)
	w.I64(m.minV)
	w.I64(m.maxV)
	w.Int(len(m.leaves))
	for _, lf := range m.leaves {
		w.F64(lf.model.slope)
		w.F64(lf.model.intercept)
		w.F64(lf.lo)
		w.F64(lf.hi)
	}
}

// DecodeCDF reads a CDF model written by Encode.
func DecodeCDF(r *wire.Reader) (*CDF, error) {
	r.Expect("CDF1")
	m := &CDF{}
	m.root.slope = r.F64()
	m.root.intercept = r.F64()
	m.minV = r.I64()
	m.maxV = r.I64()
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rmi: decoding CDF header: %w", err)
	}
	if n < 1 {
		return nil, fmt.Errorf("rmi: CDF with %d leaves", n)
	}
	// Grow incrementally: a corrupt leaf count must run out of input, not
	// allocate the declared size up front.
	m.leaves = make([]cdfLeaf, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var lf cdfLeaf
		lf.model.slope = r.F64()
		lf.model.intercept = r.F64()
		lf.lo = r.F64()
		lf.hi = r.F64()
		if r.Err() != nil {
			break
		}
		m.leaves = append(m.leaves, lf)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rmi: decoding CDF leaves: %w", err)
	}
	return m, nil
}

package core

import "flood/internal/rmi"

// bucketer maps a dimension's values onto grid column indexes. Both
// implementations are monotone non-decreasing, the property projection
// relies on: bucket(u) <= bucket(v) whenever u <= v.
type bucketer interface {
	bucket(v int64, cols int) int
	sizeBytes() int64
}

// cdfBucketer places v into column ⌊CDF(v)·c⌋ so each column holds roughly
// the same number of points (flattening, §5.1).
type cdfBucketer struct {
	cdf *rmi.CDF
}

func (b cdfBucketer) bucket(v int64, cols int) int { return b.cdf.Bucket(v, cols) }
func (b cdfBucketer) sizeBytes() int64             { return b.cdf.SizeBytes() }

// linearBucketer divides [min, max] into equally spaced columns (§3.1).
type linearBucketer struct {
	min     int64
	rangeSz float64 // max - min + 1
}

func newLinearBucketer(min, max int64) linearBucketer {
	return linearBucketer{min: min, rangeSz: float64(max) - float64(min) + 1}
}

func (b linearBucketer) bucket(v int64, cols int) int {
	if v < b.min {
		return 0
	}
	// Subtract in the float domain: v - b.min overflows int64 when an
	// unbounded query endpoint meets a negative minimum, and the wrapped
	// difference would map the largest keys to column 0.
	cf := (float64(v) - float64(b.min)) / b.rangeSz * float64(cols)
	if cf >= float64(cols-1) {
		return cols - 1
	}
	if cf <= 0 {
		return 0
	}
	return int(cf)
}

func (b linearBucketer) sizeBytes() int64 { return 16 }

package core

import "io"

// Hooks and shorthands only the tests use.

// Save is SaveSections with no extra sections.
func (f *Flood) Save(out io.Writer) error { return f.SaveSections(out, nil) }

// CellBounds returns the physical row range [start, end) stored for cell c.
func (f *Flood) CellBounds(c int) (start, end int) {
	return int(f.cellStart[c]), int(f.cellStart[c+1])
}

// Frac is the helpers' fraction of the units counted since an earlier
// reading (0 when there were none).
func (s Share) Frac(since Share) float64 {
	if s.Units == since.Units {
		return 0
	}
	return float64(s.Helped-since.Helped) / float64(s.Units-since.Units)
}

package core

import (
	"errors"
	"fmt"
	"io"

	"flood/internal/colstore"
	"flood/internal/rmi"
	"flood/internal/wire"
)

// Snapshot format. Version 2 wraps the stream in a FLOOD header and
// length-prefixed, CRC32-C-checksummed sections (see internal/wire), so
// truncation and bit flips surface as typed errors instead of garbage
// decodes. Any other version — including the unframed, unchecksummed
// version 1, which no release of this tree can write — is wire.ErrVersion.
const (
	// persistVersion is the snapshot format version this package writes.
	persistVersion = 2

	// sectionMeta holds the layout, then three slots older builds filled
	// with their refinement mode, model error budget and CDF leaf count.
	// Save writes the defaults 0, 50 and 0, so snapshots keep their bytes
	// and older binaries still read new ones; LoadSections reads and
	// discards them.
	sectionMeta = "meta"
	// sectionData holds the reordered compressed table.
	sectionData = "data"
	// sectionBitmaps holds the per-column bitmap indexes of low-cardinality
	// columns. The section is additive: snapshots written before it existed
	// load fine (the indexes are rebuilt from the data section), and like
	// the models section it is reconstructible, so a damaged copy degrades
	// to a rebuild instead of failing the load.
	sectionBitmaps = "bidx"
	// sectionModels holds each grid dimension's step points and the cell
	// table, then a refinement-model flag Save writes false: older builds
	// set it and stored a piecewise-linear model per cell after it, which
	// LoadSections reads and drops. It is always the final section, and it
	// is a section a loader can reconstruct: if it is damaged, LoadSections
	// retrains from the intact data instead of failing.
	sectionModels = "modl"
)

// ExtraSection is a caller-supplied snapshot section (for example the typed
// schema the public package attaches). Extra sections are written between
// the data and models sections and are CRC-verified on load like any other;
// a damaged extra section fails the load.
type ExtraSection struct {
	// Tag is the 4-byte section identifier.
	Tag string
	// Encode writes the section payload.
	Encode func(*wire.Writer)
}

// LoadResult is the full outcome of reading a snapshot: the index plus any
// extra sections, and whether degraded recovery kicked in.
type LoadResult struct {
	// Index is the loaded (or partially reconstructed) index.
	Index *Flood
	// Extra maps unrecognized section tags to their CRC-verified payloads;
	// the public package uses it to round-trip the typed schema.
	Extra map[string][]byte
	// Retrained reports that the models section was damaged and the
	// learned models were rebuilt from the intact data sections. The index
	// answers queries correctly either way; a retrained load just paid a
	// rebuild.
	Retrained bool
	// Warnings describes any degraded-recovery decisions taken.
	Warnings []string
}

// SaveSections serializes the built index — layout, reordered data, bucketing
// models and cell table — so it can be reloaded with LoadSections without
// re-sorting or re-training, with caller-supplied extra sections spliced
// between the data and models sections.
func (f *Flood) SaveSections(out io.Writer, extra []ExtraSection) error {
	if err := wire.WriteHeader(out, persistVersion, 4+len(extra)); err != nil {
		return err
	}
	sw := wire.NewSectionWriter(out)
	sw.Section(sectionMeta, f.encodeMeta)
	sw.Section(sectionData, func(w *wire.Writer) { f.t.Encode(w) })
	sw.Section(sectionBitmaps, f.encodeBitmaps)
	for _, e := range extra {
		sw.Section(e.Tag, e.Encode)
	}
	sw.Section(sectionModels, f.encodeModels)
	return sw.Err()
}

func (f *Flood) encodeMeta(w *wire.Writer) {
	w.Ints(f.layout.GridDims)
	w.Ints(f.layout.GridCols)
	w.Int(f.layout.SortDim)
	w.Bool(f.layout.Flatten)
	w.Int(0)
	w.F64(50)
	w.Int(0)
}

// encodeBitmaps writes the bitmap indexes: an index count, then for each
// indexed column its column number followed by the bitmap payload. An index
// with no bitmap-indexed columns writes a count of zero — a present-but-empty
// section, distinct from an absent one (an older snapshot), which makes
// LoadSections rebuild the indexes from the data.
func (f *Flood) encodeBitmaps(w *wire.Writer) {
	cols := make([]int, 0, f.t.NumCols())
	for c := 0; c < f.t.NumCols(); c++ {
		if f.t.Bitmap(c) != nil {
			cols = append(cols, c)
		}
	}
	w.Int(len(cols))
	for _, c := range cols {
		w.Int(c)
		f.t.Bitmap(c).Encode(w)
	}
}

// decodeBitmaps reads the bitmap-index section and attaches the decoded
// indexes to the loaded table. Any structural problem is returned as an
// error; the caller treats it like a checksum failure and rebuilds.
func (f *Flood) decodeBitmaps(r *wire.Reader) error {
	count := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: loading bitmap indexes: %w", err)
	}
	if count < 0 || count > f.t.NumCols() {
		return fmt.Errorf("core: bitmap section declares %d indexes, table has %d columns", count, f.t.NumCols())
	}
	for i := 0; i < count; i++ {
		c := r.Int()
		if err := r.Err(); err != nil {
			return fmt.Errorf("core: loading bitmap index %d: %w", i, err)
		}
		if c < 0 || c >= f.t.NumCols() {
			return fmt.Errorf("core: bitmap index %d targets column %d of %d", i, c, f.t.NumCols())
		}
		if f.t.Bitmap(c) != nil {
			return fmt.Errorf("core: duplicate bitmap index for column %d", c)
		}
		bi, err := colstore.DecodeBitmapIndex(r, f.t.NumRows())
		if err != nil {
			return fmt.Errorf("core: loading bitmap index for column %d: %w", c, err)
		}
		f.t.SetBitmap(c, bi)
	}
	return nil
}

// Bucketing tags of the models section, one per grid dimension. Save writes
// stepsTag and the dimension's step points; the two older tags carried the
// function itself, which LoadSections turns into its step points (stepPoints).
const (
	legacyCDFTag        = 1 // a flattening CDF (rmi.CDF.Encode)
	legacyEqualWidthTag = 2 // equal-width columns: min, then max − min + 1
	stepsTag            = 3 // the step points
)

func (f *Flood) encodeModels(w *wire.Writer) {
	for _, st := range f.steps {
		w.U8(stepsTag)
		w.I64s(st)
	}
	w.I32s(f.cellStart)
	w.Bool(false) // no per-cell refinement models
}

// LoadSections reads a snapshot and returns the full LoadResult: the index,
// any extra sections, and degraded-recovery details. Corruption surfaces as
// an error wrapping wire.ErrTruncated, wire.ErrChecksum, or wire.ErrVersion —
// except damage confined to the models section, which is repaired by
// retraining from the intact data (Retrained is set and a warning recorded).
func LoadSections(in io.Reader) (LoadResult, error) {
	var res LoadResult
	var h [wire.HeaderSize]byte
	if _, err := io.ReadFull(in, h[:]); err != nil {
		return res, fmt.Errorf("core: snapshot header: %w", wire.ErrTruncated)
	}
	count, err := wire.ParseHeader(h[:], persistVersion)
	if err != nil {
		return res, fmt.Errorf("core: %w", err)
	}

	var meta, data, bidx, modl []byte
	modlDamaged := false
	bidxDamaged := false
	sr := wire.NewSectionReader(in, count)
	seen := 0
sections:
	for {
		tag, payload, err := sr.Next()
		switch {
		case err == io.EOF:
			break sections
		case err == nil:
		case errors.Is(err, wire.ErrChecksum) && tag == sectionModels:
			// The models frame is present but fails its CRC; the stream
			// is still aligned, so keep reading the remaining sections
			// and retrain the models from the data afterwards.
			res.Warnings = append(res.Warnings, err.Error())
			modlDamaged = true
			seen++
			continue
		case errors.Is(err, wire.ErrChecksum) && tag == sectionBitmaps:
			// Bitmap indexes are likewise reconstructible: note the damage
			// and rebuild them from the data section after decoding.
			res.Warnings = append(res.Warnings, err.Error())
			bidxDamaged = true
			seen++
			continue
		case errors.Is(err, wire.ErrTruncated) && meta != nil && data != nil &&
			seen == count-1 && (tag == sectionModels || tag == ""):
			// The file ends inside (or just before) the final section.
			// The models section is written last, so with every other
			// section intact the loss is confined to reconstructible
			// state.
			res.Warnings = append(res.Warnings, err.Error())
			modlDamaged = true
			break sections
		default:
			return res, fmt.Errorf("core: loading snapshot: %w", err)
		}
		seen++
		switch tag {
		case sectionMeta:
			meta = payload
		case sectionData:
			data = payload
		case sectionBitmaps:
			bidx = payload
		case sectionModels:
			modl = payload
		default:
			if res.Extra == nil {
				res.Extra = make(map[string][]byte)
			}
			res.Extra[tag] = payload
		}
	}
	if meta == nil {
		return res, fmt.Errorf("core: snapshot has no %q section: %w", sectionMeta, wire.ErrTruncated)
	}
	if data == nil {
		return res, fmt.Errorf("core: snapshot has no %q section: %w", sectionData, wire.ErrTruncated)
	}

	f := &Flood{}
	if err := f.decodeMeta(wire.NewReaderBytes(meta)); err != nil {
		return res, err
	}
	if f.t, err = colstore.DecodeTable(wire.NewReaderBytes(data)); err != nil {
		return res, err
	}
	if err := f.validateLayout(); err != nil {
		return res, err
	}
	if bidx != nil && !bidxDamaged {
		if err := f.decodeBitmaps(wire.NewReaderBytes(bidx)); err != nil {
			// Structurally invalid despite a valid CRC: recoverable the
			// same way as a detected flip.
			res.Warnings = append(res.Warnings, err.Error())
			bidxDamaged = true
		}
	}
	if bidxDamaged {
		f.t.EnableBitmapIndexes(f.opts.bitmapMaxCard())
		res.Warnings = append(res.Warnings, "bitmap-index section damaged; rebuilt bitmap indexes from intact data sections")
	} else if bidx == nil {
		// Snapshot predates the bitmap section: build the indexes fresh.
		f.t.EnableBitmapIndexes(f.opts.bitmapMaxCard())
	}
	if modl != nil && !modlDamaged {
		if err := f.decodeModels(wire.NewReaderBytes(modl)); err != nil {
			// Structurally invalid despite a valid CRC: recoverable the
			// same way as a detected flip.
			res.Warnings = append(res.Warnings, err.Error())
			modlDamaged = true
		}
	} else if modl == nil {
		modlDamaged = true
	}
	if modlDamaged {
		rebuilt, err := Build(f.t, f.layout, f.opts)
		if err != nil {
			return res, fmt.Errorf("core: retraining models from intact data: %w", err)
		}
		res.Warnings = append(res.Warnings, "models section damaged; retrained learned models from intact data sections")
		res.Retrained = true
		res.Index = rebuilt
		return res, nil
	}
	f.parallelCutover = defaultParallelCutover
	res.Index = f
	return res, nil
}

// decodeMeta reads the layout from the meta section.
func (f *Flood) decodeMeta(r *wire.Reader) error {
	f.layout.GridDims = r.Ints()
	f.layout.GridCols = r.Ints()
	f.layout.SortDim = r.Int()
	f.layout.Flatten = r.Bool()
	r.Int()
	r.F64()
	r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: loading index header: %w", err)
	}
	return nil
}

// validateLayout cross-checks the decoded layout against the decoded table
// (Validate also refuses corrupt column counts whose product overflows) and
// materializes the derived grid state: cell count and strides.
func (f *Flood) validateLayout() error {
	if err := f.layout.Validate(f.t.NumCols()); err != nil {
		return fmt.Errorf("core: loaded layout invalid: %w", err)
	}
	f.numCells = f.layout.NumCells()
	f.strides = f.layout.strides()
	return nil
}

// decodeModels reads the learned models (step points, cell table) from the
// models section, validates both against the loaded layout and data, and
// reads past the per-cell refinement models an older build stored. A legacy
// CDF or equal-width tag is converted to its step points once the cell table
// has checked out: the conversion's cost grows with the column count, which
// a cell table present in the section bounds.
func (f *Flood) decodeModels(r *wire.Reader) error {
	f.steps = make([]steps, len(f.layout.GridDims))
	legacy := make([]func(int64) int, len(f.steps))
	for gi := range f.steps {
		cols := f.layout.GridCols[gi]
		switch tag := r.U8(); tag {
		case stepsTag:
			st := r.I64s()
			if err := r.Err(); err != nil {
				return fmt.Errorf("core: loading step points: %w", err)
			}
			if err := validateSteps(st, cols); err != nil {
				return fmt.Errorf("core: grid dimension %d: %w", gi, err)
			}
			f.steps[gi] = st
		case legacyCDFTag:
			cdf, err := rmi.DecodeCDF(r)
			if err != nil {
				return err
			}
			legacy[gi] = func(v int64) int { return cdf.Bucket(v, cols) }
		case legacyEqualWidthTag:
			minV, rangeSz := r.I64(), r.F64()
			legacy[gi] = func(v int64) int { return equalWidthBucket(v, minV, rangeSz, cols) }
		default:
			if err := r.Err(); err != nil {
				return fmt.Errorf("core: loading bucketers: %w", err)
			}
			return fmt.Errorf("core: unknown bucketer tag %d", tag)
		}
	}
	f.cellStart = r.I32s()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: loading cell table: %w", err)
	}
	if err := f.validateCellTable(); err != nil {
		return err
	}
	if r.Bool() {
		skipRefinementModels(r, f.numCells)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: loading index: %w", err)
	}
	for gi, bucket := range legacy {
		if bucket != nil {
			f.steps[gi] = stepPoints(bucket, f.layout.GridCols[gi])
		}
	}
	return nil
}

// validateSteps checks that a decoded step table is one Build could have
// written for cols columns: at most cols−1 points, non-decreasing. A longer
// table would bucket values past the grid's last column, an unordered one
// into the wrong columns.
func validateSteps(st steps, cols int) error {
	if len(st) > cols-1 {
		return fmt.Errorf("%d step points for %d columns", len(st), cols)
	}
	for i := 1; i < len(st); i++ {
		if st[i] < st[i-1] {
			return fmt.Errorf("step points decrease at %d", i)
		}
	}
	return nil
}

// skipRefinementModels reads past the per-cell piecewise-linear models an
// older build stored: for each cell a presence flag, then the model — tag
// PLM1, row count, segment count, and a key, base and slope per segment.
// Nothing of them is kept; a truncated model surfaces as r's error.
func skipRefinementModels(r *wire.Reader, cells int) {
	for c := 0; c < cells && r.Err() == nil; c++ {
		if !r.Bool() {
			continue
		}
		r.Expect("PLM1")
		r.Int()
		for segs := r.Int(); segs > 0 && r.Err() == nil; segs-- {
			r.I64()
			r.F64()
			r.F64()
		}
	}
}

// validateCellTable checks that the cell table is a monotone partition of
// the loaded rows: corrupt start offsets would otherwise become
// out-of-range scan bounds at query time.
func (f *Flood) validateCellTable() error {
	if len(f.cellStart) != f.numCells+1 {
		return fmt.Errorf("core: cell table has %d entries, layout needs %d", len(f.cellStart), f.numCells+1)
	}
	n := int32(f.t.NumRows())
	if f.cellStart[0] != 0 || f.cellStart[f.numCells] != n {
		return fmt.Errorf("core: cell table spans [%d, %d], table has %d rows",
			f.cellStart[0], f.cellStart[f.numCells], n)
	}
	for c := 0; c < f.numCells; c++ {
		if f.cellStart[c] > f.cellStart[c+1] {
			return fmt.Errorf("core: cell table decreases at cell %d", c)
		}
	}
	return nil
}

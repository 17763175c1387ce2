package flood

import (
	"bufio"
	"io"
	"os"

	"flood/internal/core"
	"flood/internal/optimizer"
	"flood/internal/wire"
)

// Typed corruption errors, re-exported from the wire format so callers can
// classify LoadFile and OpenStore failures with errors.Is without importing
// internal packages.
var (
	// ErrTruncated reports a snapshot or log that ends before a complete
	// structure.
	//
	//api:keep errors.Is target
	ErrTruncated = wire.ErrTruncated
	// ErrChecksum reports data whose checksum does not match its contents —
	// a bit flip, torn write, or foreign bytes.
	//
	//api:keep errors.Is target
	ErrChecksum = wire.ErrChecksum
	// ErrVersion reports a snapshot written by an unknown format version.
	//
	//api:keep errors.Is target
	ErrVersion = wire.ErrVersion
)

// LoadReport describes degraded-recovery decisions LoadFile took. A loaded
// index answers queries correctly either way; the report says whether the
// load had to pay a model retrain to get there.
type LoadReport struct {
	// Retrained is true when the snapshot's models section was damaged and
	// the learned models were rebuilt from the intact data sections.
	Retrained bool
	// Warnings describes each degraded-recovery decision.
	Warnings []string
}

// Save serializes the built index — layout, reordered data, all learned
// models, the attached typed schema (if any), and any tombstoned deletions —
// as a checksummed v2 snapshot. The cost model and predicted cost are not
// persisted: a loaded index answers queries immediately, but relearning
// needs a model (see Calibrate).
func (f *Flood) Save(w io.Writer) error {
	var extra []core.ExtraSection
	if f.schema != nil {
		extra = append(extra, core.ExtraSection{Tag: sectionSchema, Encode: f.schema.encodeSchema})
	}
	if tomb := f.idx.Tombstones(); tomb.Dead() > 0 {
		extra = append(extra, core.ExtraSection{Tag: sectionTomb, Encode: encodeTombSection(tomb, nil)})
	}
	return f.idx.SaveSections(w, extra)
}

// load reads an index written by Save from r, with LoadFile's corruption
// and recovery semantics.
func load(r io.Reader) (*Flood, LoadReport, error) {
	res, err := core.LoadSections(r)
	if err != nil {
		return nil, LoadReport{}, err
	}
	f, err := floodFromLoadResult(res)
	if err != nil {
		return nil, LoadReport{}, err
	}
	return f, LoadReport{Retrained: res.Retrained, Warnings: res.Warnings}, nil
}

// floodFromLoadResult wraps a decoded core index in the public handle,
// re-attaching the persisted schema and tombstoned deletions if the snapshot
// carried them. A damaged tombstone section is a hard error, never a silent
// degrade: resurrecting deleted rows would be wrong answers, not slow ones.
func floodFromLoadResult(res core.LoadResult) (*Flood, error) {
	var schema *Schema
	if payload, ok := res.Extra[sectionSchema]; ok {
		s, err := decodeSchema(payload)
		if err != nil {
			return nil, err
		}
		schema = s
	}
	if payload, ok := res.Extra[sectionTomb]; ok {
		tomb, _, err := decodeTombSection(payload, res.Index.Table().NumRows())
		if err != nil {
			return nil, err
		}
		if tomb != nil {
			res.Index.SetTombstones(tomb)
		}
	}
	return newFlood(res.Index, optimizer.Result{Layout: res.Index.Layout()}, nil, schema), nil
}

// SaveFile writes the snapshot to path atomically: the bytes go to a
// temporary file in the same directory, which is fsynced and renamed over
// path, and the directory is fsynced so the rename itself is durable. A
// crash at any point leaves either the old file or the new one, never a
// partial mix.
func (f *Flood) SaveFile(path string) error {
	return wire.WriteFileAtomic(path, f.Save)
}

// LoadFile reads an index from a snapshot file written by SaveFile.
// Corruption surfaces as an error wrapping ErrTruncated, ErrChecksum, or
// ErrVersion — except damage confined to the learned-models section, which
// LoadFile repairs by retraining from the intact data and records in the
// report. A schema persisted by Save is re-attached automatically.
func LoadFile(path string) (*Flood, LoadReport, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, LoadReport{}, err
	}
	defer file.Close()
	return load(bufio.NewReaderSize(file, 1<<20))
}

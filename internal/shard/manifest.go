package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flood/internal/wire"
)

// ManifestName is the manifest's filename inside a sharded store's root
// directory.
const ManifestName = "manifest.flood"

// manifestVersion tags the manifest format in the shared wire header. It is
// deliberately outside the snapshot version range so a manifest handed to
// the snapshot loader (or vice versa) fails fast with ErrVersion.
const manifestVersion = 101

// Manifest is the durable description of a sharded store's partitioning:
// the split dimension, the split points, and the per-shard subdirectory
// names, in shard order. It is written atomically and checksummed; recovery
// reads it first, then opens each shard's durable directory independently.
type Manifest struct {
	// Dim is the split dimension (physical column index).
	Dim int
	// Splits are the strictly increasing split points; len(Splits)+1 shards.
	Splits []int64
	// ShardDirs are the shard subdirectory names relative to the root, in
	// shard order.
	ShardDirs []string
}

// NumShards returns the shard count the manifest describes.
func (m *Manifest) NumShards() int { return len(m.Splits) + 1 }

// Validate checks the manifest's internal consistency: increasing splits
// and one directory per shard.
func (m *Manifest) Validate() error {
	if err := validateSplits(m.Splits); err != nil {
		return err
	}
	if len(m.ShardDirs) != m.NumShards() {
		return fmt.Errorf("shard: manifest has %d dirs for %d shards", len(m.ShardDirs), m.NumShards())
	}
	for i, d := range m.ShardDirs {
		if d == "" || d != filepath.Base(d) {
			return fmt.Errorf("shard: manifest dir %d %q is not a bare subdirectory name", i, d)
		}
	}
	return nil
}

// Router builds the routing table the manifest describes.
func (m *Manifest) Router() (*Router, error) { return NewRouter(m.Dim, m.Splits) }

// WriteManifest atomically writes the manifest into dir: the encoded,
// checksummed document lands in a temp file that is fsynced and renamed
// over ManifestName, then the directory is synced so the rename survives a
// crash. A reader therefore sees either the old manifest or the new one,
// never a torn write.
func WriteManifest(dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return wire.WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		if err := wire.WriteHeader(w, manifestVersion, 1); err != nil {
			return err
		}
		sw := wire.NewSectionWriter(w)
		sw.Section("shrd", func(w *wire.Writer) {
			w.Int(m.Dim)
			w.I64s(m.Splits)
			w.Strs(m.ShardDirs)
		})
		return sw.Err()
	})
}

// ReadManifest reads and validates dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var h [wire.HeaderSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return nil, fmt.Errorf("shard manifest header: %w", wire.ErrTruncated)
	}
	sections, err := wire.ParseHeader(h[:], manifestVersion)
	if err != nil {
		return nil, fmt.Errorf("shard manifest: %w", err)
	}
	sr := wire.NewSectionReader(f, sections)
	var m *Manifest
	for {
		tag, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shard manifest: %w", err)
		}
		if tag != "shrd" {
			continue // unknown section: forward compatibility
		}
		r := wire.NewReaderBytes(payload)
		mm := &Manifest{Dim: r.Int(), Splits: r.I64s(), ShardDirs: r.Strs()}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("shard manifest: %w", err)
		}
		m = mm
	}
	if m == nil {
		return nil, fmt.Errorf("shard manifest: missing shrd section: %w", wire.ErrTruncated)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

package flood

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"flood/internal/wire"
)

// v1Snapshot opens with the magic of the unframed, unchecksummed version-1
// format, whose reader is gone.
const v1Snapshot = "FLOODIX1garbage"

// TestLoadV1MagicIsErrVersion pins the typed answer to a version-1 file.
func TestLoadV1MagicIsErrVersion(t *testing.T) {
	if _, _, err := load(bytes.NewReader([]byte(v1Snapshot))); !errors.Is(err, ErrVersion) {
		t.Fatalf("load(v1 magic) err = %v, want ErrVersion", err)
	}
}

// fuzzSnapshot builds a tiny typed index and returns its serialized
// snapshot, giving the fuzzer a structurally valid starting point.
func fuzzSnapshot(f *testing.F) []byte {
	s := NewSchema().Int64("ts").Float64("fare", 2).String("city").TimeUnit("pickup", time.Second)
	b := s.NewTableBuilder()
	n := 48
	ts := make([]int64, n)
	fare := make([]float64, n)
	city := make([]string, n)
	pickup := make([]time.Time, n)
	cities := []string{"atlanta", "boston", "chicago"}
	epoch := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		ts[i] = int64(i * 37 % 1000)
		fare[i] = float64(i%50) / 2
		city[i] = cities[i%len(cities)]
		pickup[i] = epoch.Add(time.Duration(i) * time.Hour)
	}
	if err := b.SetInt64Column("ts", ts); err != nil {
		f.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", fare); err != nil {
		f.Fatal(err)
	}
	if err := b.SetStringColumn("city", city); err != nil {
		f.Fatal(err)
	}
	if err := b.SetTimeColumn("pickup", pickup); err != nil {
		f.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	idx, err := BuildWithLayout(tbl, Layout{
		GridDims: []int{0, 2}, GridCols: []int{4, 3}, SortDim: 1, Flatten: true,
	}, &Options{Schema: s})
	if err != nil {
		f.Fatal(err)
	}
	// Tombstone a few rows so the snapshot carries a tomb section and the
	// fuzzer mutates that too.
	if _, err := idx.DeleteRows([]int64{3, 17, 31}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWireDecode feeds arbitrary bytes to the snapshot loader: Load must
// return a typed error or a servable index — never panic, never allocate
// unboundedly — for any input. Seeds are a valid snapshot plus mutations the
// property tests found interesting (truncations, header damage, the v1
// magic).
func FuzzWireDecode(f *testing.F) {
	snap := fuzzSnapshot(f)
	f.Add(snap)
	for _, cut := range []int{0, 5, 8, len(snap) / 2, len(snap) - 4} {
		if cut >= 0 && cut <= len(snap) {
			f.Add(snap[:cut])
		}
	}
	f.Add([]byte(v1Snapshot))
	f.Add([]byte("FLOOD\x02\xff\xff"))
	f.Add([]byte{})
	// The bitmap-index section is reconstructible: a checksum-damaged copy
	// must load through the rebuild path, a truncation inside it must fail
	// with a typed error. Seed both shapes.
	if at := bytes.Index(snap, []byte("bidx")); at >= 0 {
		mut := append([]byte(nil), snap...)
		mut[at+16] ^= 0xFF
		f.Add(mut)
		f.Add(snap[:at+10])
		// Wrong content under a right checksum — the first eight rows filed
		// under no value — must load through the rebuild path too.
		size := int(binary.LittleEndian.Uint64(snap[at+4:]))
		mut = append([]byte(nil), snap...)
		payload := mut[at+12 : at+12+size]
		words := int(binary.LittleEndian.Uint64(payload[5*8:]))
		for w := 0; w < words; w++ {
			payload[6*8+w*8] = 0
		}
		binary.LittleEndian.PutUint32(mut[at+12+size:], wire.Checksum(mut[at:at+12+size]))
		f.Add(mut)
	}
	// The models section opens with the first grid dimension's step points:
	// tag 3, a count, the points. A decreasing table under a right checksum
	// must load through the retrain path.
	if at := bytes.Index(snap, []byte("modl")); at >= 0 && snap[at+12] == 3 {
		size := int(binary.LittleEndian.Uint64(snap[at+4:]))
		mut := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(mut[at+12+9:], 1<<62)
		binary.LittleEndian.PutUint32(mut[at+12+size:], wire.Checksum(mut[at:at+12+size]))
		f.Add(mut)
	}
	// The tombstone section is NOT reconstructible: damage must surface as a
	// typed load error, never as silently resurrected rows. Seed a bit flip
	// inside it and a truncation through it.
	if at := bytes.Index(snap, []byte("tomb")); at >= 0 {
		mut := append([]byte(nil), snap...)
		mut[at+12] ^= 0xFF
		f.Add(mut)
		f.Add(snap[:at+8])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, _, err := load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that succeeds must yield a servable index: run an
		// unconstrained count over it and sanity-check the row accounting.
		// Deletions persist with the snapshot, so the count is the live rows,
		// never more than the physical rows.
		agg := NewCount()
		idx.Execute(NewQuery(idx.Table().NumCols()), agg)
		got, rows := agg.Result(), idx.Table().NumRows()
		if got != int64(idx.LiveRows()) {
			t.Fatalf("loaded index counts %d rows, LiveRows says %d", got, idx.LiveRows())
		}
		if got > int64(rows) {
			t.Fatalf("loaded index counts %d rows, table has only %d", got, rows)
		}
	})
}

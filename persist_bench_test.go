package flood

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkSaveLoad1M measures snapshot throughput on the shared 1M-row
// typed index: a full checksummed SaveFile (atomic write + fsync) and the
// corresponding LoadFile (CRC verification included). Recorded in
// BENCH_scan.json by `make bench`.
func BenchmarkSaveLoad1M(b *testing.B) {
	idx, _ := selectBenchSetup(b)
	path := filepath.Join(b.TempDir(), "bench.flood")
	if err := idx.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("save", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			if err := idx.SaveFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			loaded, _, err := LoadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if loaded.Table().NumRows() != idx.Table().NumRows() {
				b.Fatal("row count changed across save/load")
			}
		}
	})
}

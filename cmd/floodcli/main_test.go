package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	flood "flood"
	"flood/floodsql"
	"flood/internal/dataset"
	"flood/internal/server"
	"flood/internal/workload"
)

// TestRunRemote drives -addr mode against a 4-shard store served over HTTP:
// an aggregate prints the answer the store gives in process, and \stats
// prints one line per shard.
func TestRunRemote(t *testing.T) {
	ds := dataset.Sales(4000, 31)
	sh, err := flood.NewSharded(ds.Table, workload.Standard(ds, 20, 32), &flood.ShardedOptions{
		Shards: 4,
		Build:  &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 33},
	})
	if err != nil {
		t.Fatal(err)
	}
	const count = "SELECT COUNT(*) FROM sales WHERE price BETWEEN 200000 AND 400000"
	st, err := floodsql.Parse(count, ds.Table)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := st.Run(sh)
	if err != nil || want == 0 {
		t.Fatalf("in process: %d rows, %v", want, err)
	}
	srv := server.New(sh, nil)
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()

	var out strings.Builder
	if err := runRemote(&out, hs.URL, count, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("\n  = %d (matched %d rows", want, want)) {
		t.Fatalf("remote COUNT(*) printed\n%s\nwant = %d", out.String(), want)
	}

	out.Reset()
	if err := runRemote(&out, hs.URL, `\stats`, 0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n  shard "); got != sh.NumShards() {
		t.Fatalf("\\stats printed %d shard lines, want %d:\n%s", got, sh.NumShards(), out.String())
	}
	for i := 0; i < sh.NumShards(); i++ {
		if !strings.Contains(out.String(), fmt.Sprintf("\n  shard %d [", i)) {
			t.Fatalf("\\stats has no line for shard %d:\n%s", i, out.String())
		}
	}
}

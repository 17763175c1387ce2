package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	flood "flood"
	"flood/internal/dataset"
	"flood/internal/workload"
)

// TestServerShutdownKeepsAckedWrites is the satellite shutdown test: writes
// acknowledged by a durable server before a SIGTERM-style shutdown
// (http.Server stops accepting, then Server.Close drains batches,
// checkpoints, and closes) must all be present when the directory is
// reopened — including writes racing the shutdown, where "acked" is
// decided by the HTTP 200.
func TestServerShutdownKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	ds := dataset.Sales(3000, 21)
	queries := workload.Standard(ds, 20, 22)
	idx, err := flood.Build(ds.Table, queries, &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := flood.CreateDurable(dir, idx, &flood.DurableOptions{
		Adaptive: &flood.AdaptiveConfig{DriftFactor: 1e9, Build: &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 24}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDurable(dur, nil)
	hs := httptest.NewServer(srv.Handler())

	dateCol := ds.ColumnIndex("date")
	row := func(marker int64) []int64 {
		r := make([]int64, ds.Table.NumCols())
		copy(r, []int64{1, 2, 3, 4, 5, 6}[:len(r)])
		r[dateCol] = 9000 + marker
		return r
	}
	insert := func(marker int64) bool {
		vals := make([]string, 0, ds.Table.NumCols())
		for _, v := range row(marker) {
			vals = append(vals, fmt.Sprint(v))
		}
		body, _ := json.Marshal(QueryRequest{SQL: "INSERT INTO sales VALUES (" + strings.Join(vals, ", ") + ")"})
		resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}

	// Phase 1: a settled prefix of acked writes.
	const settled = 20
	for i := int64(0); i < settled; i++ {
		if !insert(i) {
			t.Fatalf("settled insert %d not acked", i)
		}
	}

	// Phase 2: writers racing the shutdown. Every insert that returns 200
	// is recorded as acked; the shutdown starts while they run.
	var mu sync.Mutex
	acked := map[int64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 40; i++ {
				marker := settled + int64(w)*1000 + i
				if insert(marker) {
					mu.Lock()
					acked[marker] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	// SIGTERM ordering: stop accepting (httptest Close waits for in-flight
	// handlers), then drain + checkpoint + close the store.
	hs.Close()
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, rep, err := flood.OpenDurable(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(rep.Warnings) > 0 {
		t.Fatalf("recovery warnings: %+v", rep)
	}
	count := func(marker int64) int64 {
		q := flood.NewQuery(ds.Table.NumCols()).WithRange(dateCol, 9000+marker, 9000+marker)
		agg := flood.NewCount()
		reopened.Execute(q, agg)
		return agg.Result()
	}
	for i := int64(0); i < settled; i++ {
		if count(i) != 1 {
			t.Fatalf("settled acked write %d lost across shutdown", i)
		}
	}
	for marker := range acked {
		if count(marker) != 1 {
			t.Fatalf("racing acked write %d lost across shutdown", marker)
		}
	}
}

package main

import (
	"bytes"
	"cmp"
	"log"
	"path/filepath"
	"strings"
	"testing"

	flood "flood"
)

// TestResolveStore walks the store precedence: what -dir already holds wins,
// then -load / -dataset build a store that -shards partitions and -dir makes
// durable; the flag combinations that cannot be honoured are errors.
func TestResolveStore(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)

	const rows = 3000
	flat, sharded := t.TempDir(), filepath.Join(t.TempDir(), "not-yet-there")
	snapshot := filepath.Join(t.TempDir(), "sales.flood")
	if idx, err := buildBase("sales", rows, 1, ""); err != nil {
		t.Fatal(err)
	} else if err := idx.SaveFile(snapshot); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name               string
		dataset, load, dir string // dataset "" is sales
		shards             int
		// wantShards is the resolved store's shard count, 1 meaning a flat
		// store; wantErr, when set, is a fragment of the error instead. logs
		// must appear in the log.
		wantShards int
		wantErr    string
		logs       string
	}{
		{name: "no dir, flat", wantShards: 1},
		{name: "no dir, -shards 4", shards: 4, wantShards: 4},
		{name: "-load", load: snapshot, wantShards: 1, logs: "loaded snapshot"},
		{name: "new dir, flat", dir: flat, wantShards: 1, logs: "created durable store"},
		{name: "flat dir reopened", dir: flat, wantShards: 1, logs: "opened store"},
		{name: "new dir, -shards 4", dir: sharded, shards: 4, wantShards: 4, logs: "built sharded"},
		{name: "sharded dir reopened with -shards 2: the directory wins", dir: sharded, shards: 2,
			wantShards: 4, logs: "-shards 2 ignored"},
		{name: "sharded dir reopened without -shards", dir: sharded, wantShards: 4, logs: "opened store"},
		{name: "-shards on a flat dir", dir: flat, shards: 4, wantErr: "already holds a flat store"},
		{name: "-load with -shards", load: snapshot, shards: 4, wantErr: "cannot repartition a flat snapshot"},
		{name: "unknown dataset", dataset: "nope", wantErr: "unknown -dataset"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			logged.Reset()
			store, err := resolveStore(cmp.Or(c.dataset, "sales"), rows, 1, c.load, c.dir, c.shards)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one mentioning %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if _, sharded := store.(*flood.ShardedIndex); sharded != (c.wantShards > 1) || store.NumShards() != c.wantShards {
				t.Errorf("resolved a %T of %d shards, want %d", store, store.NumShards(), c.wantShards)
			}
			if durable := store.Shard(0).Name() == "Flood+Durable"; durable != (c.dir != "") {
				t.Errorf("shard 0 is %s with -dir %q", store.Shard(0).Name(), c.dir)
			}
			if store.NumRows() != rows {
				t.Errorf("store holds %d rows, want %d", store.NumRows(), rows)
			}
			if !strings.Contains(logged.String(), c.logs) {
				t.Errorf("log does not mention %q:\n%s", c.logs, logged.String())
			}
		})
	}
}

// Command adaptive demonstrates the adaptive index lifecycle (§8, "Shifting
// workloads"): an AdaptiveIndex serves queries continuously while it samples
// the live workload, detects drift with its monitor, relearns the layout in
// the background, and swaps the fresh index in atomically — no query ever
// blocks on the rebuild. The cost model is calibrated once and reused across
// every relearn (§7.6).
package main

import (
	"fmt"
	"log"
	"time"

	flood "flood"
	"flood/datagen"
)

const (
	rows      = 200_000
	maxPasses = 40
)

// serve runs one pass of queries through the index and returns the average
// end-to-end latency.
func serve(a *flood.AdaptiveIndex, queries []flood.Query) time.Duration {
	var total time.Duration
	for _, q := range queries {
		total += a.Execute(q, flood.NewCount()).Total
	}
	return (total / time.Duration(len(queries))).Round(time.Microsecond)
}

// serveEra keeps serving an era's queries until the adaptive loop relearns
// (or the pass budget runs out, when a relearn is forced so the demo always
// completes). It returns the stale-layout latency from the first pass and
// the fresh-layout latency measured after the swap.
func serveEra(a *flood.AdaptiveIndex, queries []flood.Query) (stale, fresh time.Duration, passes int, forced bool) {
	before := a.Stats().Relearns
	stale = serve(a, queries)
	for passes = 1; passes < maxPasses && a.Stats().Relearns == before; passes++ {
		serve(a, queries)
	}
	if a.Stats().Relearns == before {
		forced = a.TriggerRelearn()
	}
	a.Wait()
	fresh = serve(a, queries)
	return stale, fresh, passes, forced
}

func main() {
	ds := datagen.TPCH(rows, 31)

	fmt.Println("calibrating cost model (one-time, reused by every relearn)...")
	calib := datagen.StandardWorkload(ds, 100, 32)
	model, err := flood.Calibrate(ds.Table, calib, &flood.Options{Seed: 33})
	if err != nil {
		log.Fatal(err)
	}

	// Era 0: learn an initial layout for the first workload.
	era0 := datagen.RandomWorkload(ds, 120, 41)
	train, test := datagen.SplitTrainTest(era0, 0.6, 41)
	start := time.Now()
	idx, err := flood.Build(ds.Table, train, &flood.Options{CostModel: model, Seed: 41})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("era 0: built %s in %v\n", idx.Layout(), time.Since(start).Round(time.Millisecond))

	a := flood.NewAdaptiveIndex(idx, &flood.AdaptiveConfig{
		DriftFactor: 1.5,
		Build:       &flood.Options{CostModel: model, Seed: 41},
	})
	defer a.Close()
	fmt.Printf("era 0: serving at %v/query\n", serve(a, test))

	// Eras 1 and 2: the workload shifts to different filter dimensions.
	// The stale layout slows down, the monitor notices, and a background
	// relearn swaps in a layout tuned for the new queries — while this
	// same loop keeps serving without interruption.
	for era, seed := range []int64{42, 43} {
		queries := datagen.RandomWorkload(ds, 120, seed)
		_, test := datagen.SplitTrainTest(queries, 0.6, seed)
		stale, fresh, passes, forced := serveEra(a, test)
		trigger := fmt.Sprintf("drift detected after %d pass(es)", passes)
		if forced {
			trigger = "relearn forced (drift below threshold on this machine)"
		}
		speedup := float64(stale) / float64(fresh)
		fmt.Printf("era %d: stale layout served %v/query -> %s -> relearned %s in background -> %v/query (%.1fx)\n",
			era+1, stale, trigger, a.Layout(), fresh, speedup)
	}

	st := a.Stats()
	fmt.Printf("lifecycle: %d queries served, %d relearns, %d merges, %d sampled queries, last swap %v ago\n",
		st.Queries, st.Relearns, st.Merges, st.SampledQueries,
		time.Since(st.LastSwap).Round(time.Millisecond))
}

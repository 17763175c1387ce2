// Command retrieval shows the typed schema and row-retrieval API end to
// end: declare a schema with string, float, and time columns, load logical
// rows through a TableBuilder, build a learned index, and get matching rows
// back out — via typed predicates, via SQL with projection, and as a top-k
// ordered cursor — then insert a logical row. Contrast with
// examples/quickstart, which stops at aggregates over raw int64 columns.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	flood "flood"
	"flood/floodsql"
)

func main() {
	// --- 1. Declare the logical schema -------------------------------
	// Physically everything is int64 (§7.1 of the paper): the schema
	// carries the encoders — a lexicographic dictionary for city, a
	// 2-decimal-digit scaler for fare, epoch seconds for pickup — and
	// decodes results back.
	schema := flood.NewSchema().
		String("city").
		Float64("fare", 2).
		Int64("dist").
		TimeUnit("pickup", time.Second)

	// --- 2. Load rides through the TableBuilder ----------------------
	rng := rand.New(rand.NewSource(7))
	cities := []string{"austin", "boston", "chicago", "nyc", "seattle"}
	day0 := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	b := schema.NewTableBuilder()
	const n = 200_000
	for i := 0; i < n; i++ {
		err := b.AppendRow(
			cities[rng.Intn(len(cities))],
			float64(rng.Intn(8000))/100, // fare: 0.00 .. 79.99
			int64(rng.Intn(300)),        // dist: blocks
			day0.Add(time.Duration(rng.Intn(14*24*3600))*time.Second),
		)
		if err != nil {
			log.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// --- 3. Build the learned index for the expected workload --------
	var train []flood.Query
	for i := 0; i < 40; i++ {
		t0 := day0.Add(time.Duration(rng.Intn(10*24*3600)) * time.Second)
		train = append(train, schema.Where().
			WithStringEquals("city", cities[rng.Intn(len(cities))]).
			WithTimeRange("pickup", t0, t0.Add(24*time.Hour)).
			Query())
	}
	idx, err := flood.Build(tbl, train, &flood.Options{Schema: schema, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned layout %s over %d rides\n\n", idx.Layout(), n)

	// --- 4. Typed predicates + Select: get the rows back -------------
	day3 := day0.Add(3 * 24 * time.Hour)
	q := schema.Where().
		WithStringEquals("city", "nyc").
		WithFloatRange("fare", 1.50, 9.99).
		WithTimeRange("pickup", day3, day3.Add(24*time.Hour)).
		Query()
	rows, st := idx.Select(q, "city", "fare", "pickup")
	matched := rows.Len()
	fmt.Printf("cheap nyc rides on day 3: %d (scanned %d points in %v)\n",
		matched, st.Scanned, st.Total)
	for i := 0; rows.Next() && i < 3; i++ {
		fmt.Printf("  %s  $%.2f  %s\n",
			rows.String(0), rows.Float64(1), rows.Time(2).Format(time.RFC3339))
	}
	rows.Close()

	// --- 5. Top-k: the 5 cheapest and the 3 longest matching rides ---
	rows, _ = idx.Select(q, "fare", "dist")
	rows.OrderBy("fare", 5)
	fmt.Println("\n5 cheapest of those rides:")
	for rows.Next() {
		fmt.Printf("  $%.2f over %d blocks\n", rows.Float64(0), rows.Int64(1))
	}
	rows.Close()
	rows, _ = idx.Select(q, "fare", "dist")
	rows.OrderByDesc("dist", 3)
	fmt.Println("3 longest of those rides:")
	for rows.Next() {
		fmt.Printf("  %d blocks for $%.2f\n", rows.Int64(1), rows.Float64(0))
	}
	rows.Close()

	// --- 6. The same through SQL with projection ---------------------
	stmt, err := floodsql.ParseTyped(
		"SELECT city, fare FROM rides WHERE city = 'seattle' AND fare BETWEEN 1.5 AND 9.99 AND dist >= 250",
		schema)
	if err != nil {
		log.Fatal(err)
	}
	rows, _, err = stmt.Select(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSQL projection matched %d long cheap seattle rides; first 3:\n", rows.Len())
	for i := 0; rows.Next() && i < 3; i++ {
		fmt.Printf("  %s  $%.2f\n", rows.String(0), rows.Float64(1))
	}
	rows.Close()

	// --- 7. Parse errors point at the offending token ----------------
	_, err = floodsql.ParseTyped("SELECT city FROM rides WHERE fare BETWEEEN 1 AND 2", schema)
	fmt.Printf("\nmalformed SQL: %v\n", err)

	// --- 8. SelectContext: deadline + LIMIT pushdown -----------------
	// Serving code bounds every query: the context's deadline caps wall
	// time, and QueryOptions.Limit stops the scan after the k-th match
	// instead of materializing the full result — note how many fewer rows
	// are scanned than in step 4.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rows, lst, err := idx.SelectContext(ctx, q, &flood.QueryOptions{Limit: 5}, "city", "fare")
	if err != nil {
		log.Fatal(err) // ErrCanceled would mean the deadline fired mid-scan
	}
	fmt.Printf("\nLIMIT 5 with a 50ms deadline: %d rows, scanned %d points (full query scanned %d)\n",
		rows.Len(), lst.Scanned, st.Scanned)
	for rows.Next() {
		fmt.Printf("  %s  $%.2f\n", rows.String(0), rows.Float64(1))
	}
	rows.Close()

	// The same bound through SQL: LIMIT rides the pushdown. A fresh
	// deadline — the previous context's 50ms may already be spent on the
	// query above and the printing between.
	stmt, err = floodsql.ParseTyped(
		"SELECT city, fare FROM rides WHERE city = 'nyc' LIMIT 3", schema)
	if err != nil {
		log.Fatal(err)
	}
	sqlCtx, sqlCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer sqlCancel()
	rows, lst, err = stmt.SelectContext(sqlCtx, idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL LIMIT 3: %d rows, scanned %d points\n", rows.Len(), lst.Scanned)
	rows.Close()

	// --- 9. Insert a logical row -------------------------------------
	// Insert takes a physical int64 row; EncodeRow converts a logical one
	// through the fitted encoders (a city must already be in the
	// dictionary). The adaptive facade takes over serving from idx, and
	// the row is visible to the next query.
	live := flood.NewAdaptiveIndex(idx, nil)
	defer live.Close()
	row, err := schema.EncodeRow("nyc", 4.25, int64(12), day3.Add(time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	if err := live.Insert(row); err != nil {
		log.Fatal(err)
	}
	rows, _ = live.Select(q, "fare")
	fmt.Printf("\nafter one typed insert: %d cheap nyc rides on day 3 (%d before)\n", rows.Len(), matched)
	rows.Close()
}

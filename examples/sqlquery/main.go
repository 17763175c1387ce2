// Command sqlquery runs SQL aggregations (the fragment of §3) against a
// learned index through the floodsql front end, including OR predicates that
// are decomposed into disjoint rectangles before execution.
package main

import (
	"fmt"
	"log"
	"time"

	flood "flood"
	"flood/datagen"
	"flood/floodsql"
)

func main() {
	ds := datagen.TPCH(200_000, 51)
	train := datagen.StandardWorkload(ds, 150, 52)
	idx, err := flood.Build(ds.Table, train, &flood.Options{Seed: 53})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned layout: %s\n\n", idx.Layout())

	queries := []string{
		"SELECT COUNT(*) FROM lineitem WHERE shipdate BETWEEN 800 AND 830 AND discount >= 5",
		"SELECT SUM(extendedprice) FROM lineitem WHERE quantity < 10 AND shipdate >= 2000",
		"SELECT COUNT(*) FROM lineitem WHERE quantity = 1 OR quantity = 50",
		"SELECT MIN(extendedprice) FROM lineitem WHERE (discount = 0 OR discount = 10) AND quantity >= 45",
	}
	for _, sql := range queries {
		st, err := floodsql.Parse(sql, ds.Table)
		if err != nil {
			log.Fatal(err)
		}
		v, stats, err := st.Run(idx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  = %d   (%v, scanned %d rows over %d disjuncts)\n\n",
			sql, v, stats.Total.Round(time.Microsecond), stats.Scanned, max(1, len(st.Disjuncts)))
	}
}

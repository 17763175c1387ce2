package floodsql

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	flood "flood"
)

// TestDisjunctsShape pins the rectangles a predicate lowers to: a conjunction
// of any length is one rectangle narrowed in place, a contradiction is still
// one (unsatisfiable) rectangle, and only OR, IN and parenthesised
// disjunctions make more — distributed over AND as before.
func TestDisjunctsShape(t *testing.T) {
	tbl, _ := testTable(t) // price, qty, day
	const lo, hi = flood.NegInf, flood.PosInf
	type rect [3][2]int64 // per column: {min, max}; {lo, hi} = unfiltered
	free := [2]int64{lo, hi}
	cases := []struct {
		where string
		want  []rect
	}{
		{"price = 5", []rect{{{5, 5}, free, free}}},
		{"price >= 5 AND price <= 9 AND qty BETWEEN 1 AND 3 AND price > 6 AND day < 100",
			[]rect{{{7, 9}, {1, 3}, {lo, 99}}}},
		{"price < 10 AND price > 20", []rect{{{1, 0}, free, free}}},
		// Atoms after the contradiction still parse (they used not to).
		{"price < 10 AND price > 20 AND qty = 2 AND (day = 1 OR day = 2)", []rect{{{1, 0}, free, free}}},
		{"qty = 4 AND day BETWEEN 9 AND 3 AND price = 1", []rect{{{1, 0}, free, free}}},
		{"price = 1 OR qty = 2", []rect{{{1, 1}, free, free}, {free, {2, 2}, free}}},
		{"price < 10 AND price > 20 OR qty = 2", []rect{{{1, 0}, free, free}, {free, {2, 2}, free}}},
		{"price IN (3, 1, 3)", []rect{{{3, 3}, free, free}, {{1, 1}, free, free}, {{3, 3}, free, free}}},
		{"price IN (7)", []rect{{{7, 7}, free, free}}},
		{"qty > 5 AND price IN (1, 2) AND day = 9",
			[]rect{{{1, 1}, {6, hi}, {9, 9}}, {{2, 2}, {6, hi}, {9, 9}}}},
		{"((price = 1))", []rect{{{1, 1}, free, free}}},
		{"(price = 1 AND (qty = 2 AND (day = 3)))", []rect{{{1, 1}, {2, 2}, {3, 3}}}},
		{"(price = 1 OR price = 2) AND (qty = 3 OR qty = 4)", []rect{
			{{1, 1}, {3, 3}, free}, {{1, 1}, {4, 4}, free},
			{{2, 2}, {3, 3}, free}, {{2, 2}, {4, 4}, free}}},
		{"(price < 5 OR price > 8) AND price BETWEEN 4 AND 6", []rect{{{4, 4}, free, free}}},
		{"day = 1 AND (price = 1 OR (qty = 2 AND (price = 3 OR price = 4)))", []rect{
			{{1, 1}, free, {1, 1}}, {{3, 3}, {2, 2}, {1, 1}}, {{4, 4}, {2, 2}, {1, 1}}}},
	}
	for _, c := range cases {
		st, err := Parse("SELECT COUNT(*) FROM t WHERE "+c.where, tbl)
		if err != nil {
			t.Errorf("%s: %v", c.where, err)
			continue
		}
		var got []rect
		for _, q := range st.Disjuncts {
			var r rect
			for d, rg := range q.Ranges {
				r[d] = [2]int64{rg.Min, rg.Max}
				if rg.Present == (r[d] == free) && rg.Min <= rg.Max {
					t.Errorf("%s: column %d range [%d,%d] has Present = %v", c.where, d, rg.Min, rg.Max, rg.Present)
				}
			}
			got = append(got, r)
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: %d rectangles %v, want %d %v", c.where, len(got), got, len(c.want), c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: rectangle %d = %v, want %v", c.where, i, got[i], c.want[i])
			}
		}
	}
}

// hostileDNF returns predicates whose normal form passes MaxDisjuncts, each
// with the byte offset its error must name: sixteen ANDed two-way ORs
// (65,536 rectangles; refused at the eleventh factor, the first to pass
// 1,024), a 10,000-value IN list (refused at value 1,025) and a chain of
// 2,000 ORs (refused at OR number 1,024).
func hostileDNF() map[string]int {
	const prefix = "SELECT COUNT(*) FROM t WHERE "
	var factors []string
	for i := 0; i < 16; i++ {
		factors = append(factors, fmt.Sprintf("(price > %d OR qty > %d)", i, i))
	}
	product := prefix + strings.Join(factors, " AND ")
	var values, ors []string
	for i := 0; i < 10_000; i++ {
		values = append(values, strconv.Itoa(i))
	}
	for i := 0; i < 2_000; i++ {
		ors = append(ors, fmt.Sprintf("day = %d", i))
	}
	in := prefix + "price IN (" + strings.Join(values, ", ") + ")"
	or := prefix + strings.Join(ors, " OR ")
	return map[string]int{
		product: len(prefix + strings.Join(factors[:10], " AND ") + " AND "),
		in:      len(prefix + "price IN (" + strings.Join(values[:MaxDisjuncts], ", ") + ", "),
		or:      len(prefix+strings.Join(ors[:MaxDisjuncts], " OR ")) + 1,
	}
}

// TestDisjunctsBounded holds the DNF expansion to MaxDisjuncts: each hostile
// predicate fails with a positioned error, before its rectangles are built
// (a bounded TotalAlloc: expanded, the product allocated 25 MB and the IN
// list 3.5 MB), while a predicate of exactly MaxDisjuncts rectangles still
// parses.
func TestDisjunctsBounded(t *testing.T) {
	tbl, _ := testTable(t)
	for sql, off := range hostileDNF() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(sql, tbl)
		runtime.ReadMemStats(&after)
		want := fmt.Sprintf("at byte %d ", off)
		if err == nil || !strings.Contains(err.Error(), "MaxDisjuncts") || !strings.Contains(err.Error(), want) {
			t.Errorf("%.60s...: error %v, want the MaxDisjuncts error %s", sql, err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 512<<10 {
			t.Errorf("%.60s...: refusing it allocated %d bytes, want at most 512 KiB", sql, got)
		}
	}
	var factors, values []string
	for i := 0; i < 10; i++ {
		factors = append(factors, fmt.Sprintf("(price > %d OR qty > %d)", i, i))
	}
	for i := 0; i < MaxDisjuncts; i++ {
		values = append(values, strconv.Itoa(i))
	}
	for _, where := range []string{strings.Join(factors, " AND "), "price IN (" + strings.Join(values, ",") + ")"} {
		st, err := Parse("SELECT COUNT(*) FROM t WHERE "+where, tbl)
		if err != nil || len(st.Disjuncts) != MaxDisjuncts {
			t.Errorf("%.60s...: %v, want %d rectangles", where, err, MaxDisjuncts)
		}
	}
}

// crossingSlabs returns an OR of n equality slabs on each of cols.
func crossingSlabs(n int, cols ...string) string {
	var terms []string
	for _, c := range cols {
		for i := 0; i < n; i++ {
			terms = append(terms, fmt.Sprintf("%s = %d", c, i))
		}
	}
	return strings.Join(terms, " OR ")
}

// TestPiecesBounded holds the disjoint decomposition of a predicate to
// MaxPieces: 341 slabs on each of three columns stay within MaxDisjuncts but
// cut into ~40M pieces, and are refused at the predicate with bounded
// allocation, while 40 slabs on each of two columns (1,680 pieces) parse.
func TestPiecesBounded(t *testing.T) {
	tbl, _ := testTable(t)
	const prefix = "SELECT COUNT(*) FROM t WHERE "
	sql := prefix + crossingSlabs(341, "price", "qty", "day")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(sql, tbl)
	runtime.ReadMemStats(&after)
	want := fmt.Sprintf("at byte %d ", len(prefix))
	if err == nil || !strings.Contains(err.Error(), "MaxPieces") || !strings.Contains(err.Error(), want) {
		t.Errorf("crossing slabs: error %v, want the MaxPieces error %s", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("refusing crossing slabs allocated %d bytes, want at most 8 MiB", got)
	}
	st, err := Parse(prefix+crossingSlabs(40, "price", "qty"), tbl)
	if err != nil || len(st.Disjuncts) != 80 {
		t.Errorf("40x40 crossing slabs: %v", err)
	}
}

// TestInList covers the IN atom end to end: results against OR, values the
// column cannot hold, and its parse errors.
func TestInList(t *testing.T) {
	tbl, _ := testTable(t)
	idx := testIndex(t, tbl)
	in := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE price IN (10, 20, 20, 30) AND qty < 500")
	or := mustRun(t, idx, tbl, "SELECT COUNT(*) FROM t WHERE (price = 10 OR price = 20 OR price = 30) AND qty < 500")
	if in != or || in == 0 {
		t.Fatalf("IN counted %d, the equivalent OR %d", in, or)
	}
	s, tidx, city, _, _ := typedFixture(t)
	st, err := ParseTyped("SELECT COUNT(*) FROM t WHERE city IN ('nyc', 'atlantis', 'boston')", s)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, c := range city {
		if c == "nyc" || c == "boston" {
			want++
		}
	}
	if got, _, _ := st.Run(tidx); got != want || len(st.Disjuncts) != 2 {
		t.Fatalf("city IN counted %d over %d rectangles, want %d over 2", got, len(st.Disjuncts), want)
	}
	st, err = ParseTyped("SELECT COUNT(*) FROM t WHERE city IN ('atlantis')", s)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Run(tidx); got != 0 || len(st.Disjuncts) != 1 {
		t.Fatalf("IN of an unknown value counted %d over %d rectangles", got, len(st.Disjuncts))
	}
	for _, bad := range []string{
		"SELECT COUNT(*) FROM t WHERE city IN ()",
		"SELECT COUNT(*) FROM t WHERE city IN 'nyc'",
		"SELECT COUNT(*) FROM t WHERE city IN ('nyc',)",
		"SELECT COUNT(*) FROM t WHERE city IN ('nyc'",
		"SELECT COUNT(*) FROM t WHERE city IN (7)",
	} {
		if _, err := ParseTyped(bad, s); err == nil {
			t.Errorf("%s: parsed", bad)
		}
	}
}

// TestStringLiteralEscapes pins the lexer's two string paths: a literal
// without a doubled quote is a slice of the statement, one with it is
// unescaped.
func TestStringLiteralEscapes(t *testing.T) {
	for src, want := range map[string]string{
		"'nyc'":      "nyc",
		"''":         "",
		"'it''s'":    "it's",
		"''''":       "'",
		"'a''''b'''": "a''b'",
	} {
		l := lexer{src: src}
		l.next()
		if l.err != nil || l.tok.kind != tokString || l.text(l.tok) != want {
			t.Errorf("%s lexed to kind %d %q (err %v), want string %q", src, l.tok.kind, l.text(l.tok), l.err, want)
		}
		if l.next(); l.tok.kind != tokEOF {
			t.Errorf("%s: trailing token %q", src, l.text(l.tok))
		}
	}
	l := lexer{src: "'open''"}
	if l.next(); l.err == nil {
		t.Error("unterminated literal lexed without an error")
	}
}

// TestLookupAllocations pins the allocation floor of the selective-query
// path on the lookup_sql store: a parse allocates one block holding the
// Statement, its rectangle, that rectangle's ranges and the projection, and a
// point lookup adds nothing the pooled cursor does not absorb.
func TestLookupAllocations(t *testing.T) {
	schema, idx, orderID := lookupSetup(t)
	shapes := lookupShapes(orderID[len(orderID)/3])
	for name, sql := range shapes {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := ParseTyped(sql, schema); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("ParseTyped of the %s lookup allocates %.0f times, want 1", name, n)
		}
	}
	// The adaptive index copies each of its first SampleSize (512) queries
	// into its workload reservoir; fill it, so what is counted is the
	// steady state.
	ctx := context.Background()
	point, err := ParseTyped(shapes["point"], schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		rows, _, _ := point.SelectContext(ctx, idx)
		rows.Close()
	}
	if n := testing.AllocsPerRun(200, func() {
		st, err := ParseTyped(shapes["point"], schema)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := st.SelectContext(ctx, idx)
		if err != nil || rows.Len() == 0 {
			t.Fatalf("point lookup: %d rows, %v", rows.Len(), err)
		}
		rows.Close()
	}); n > 1 {
		t.Errorf("parse + SelectContext + Close of a point lookup allocates %.0f times, want 1", n)
	}
}

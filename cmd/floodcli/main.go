// Command floodcli builds a learned index over a CSV file and runs SQL
// aggregations against it.
//
//	floodcli -csv orders.csv -train "day BETWEEN 0 AND 14; store = 3" \
//	         -query "SELECT COUNT(*) FROM t WHERE day BETWEEN 100 AND 113 AND store = 7"
//
// Columns are typed automatically: integer columns load directly, decimal
// columns are scaled to integers (§7.1), and string columns are
// dictionary-encoded with order-preserving codes. The -train flag lists
// sample predicates (semicolon-separated WHERE clauses) describing the
// expected workload; Flood learns its layout from them. The -timeout flag
// bounds query execution: past the deadline the scan stops cooperatively
// and the command reports how far it got.
//
// A learned index can be persisted and served without rebuilding: -save
// writes a checksummed snapshot (atomic temp-file + rename + fsync), and
// -load restores one — including its typed layout and models — so later
// runs skip both the CSV parse and layout learning:
//
//	floodcli -csv orders.csv -train "day BETWEEN 0 AND 14" -save orders.flood
//	floodcli -load orders.flood -query "SELECT COUNT(*) FROM t WHERE day < 7"
//
// With -addr, floodcli becomes a client for a running floodserver instead
// of building anything locally: -query runs one statement remotely, and
// without -query statements are read line by line from stdin:
//
//	floodcli -addr http://localhost:8080 -query "SELECT COUNT(*) FROM t WHERE day < 7"
//	floodcli -addr http://localhost:8080   # then type statements, one per line
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	flood "flood"
	"flood/floodsql"
	"flood/internal/encode"
	"flood/internal/server"
)

func main() {
	var (
		csvPath  = flag.String("csv", "", "input CSV file with a header row")
		train    = flag.String("train", "", "semicolon-separated sample WHERE clauses describing the workload")
		query    = flag.String("query", "", "SQL statement to run (SELECT COUNT/SUM/MIN ... WHERE ...)")
		seed     = flag.Int64("seed", 1, "random seed for layout learning")
		timeout  = flag.Duration("timeout", 0, "query execution deadline (e.g. 500ms; 0 = none); a query over deadline returns its partial result and an error")
		savePath = flag.String("save", "", "write the built index to this snapshot file (atomic write + fsync)")
		loadPath = flag.String("load", "", "load a snapshot written by -save instead of building from -csv")
		addr     = flag.String("addr", "", "run statements against a floodserver at this base URL instead of a local index")
	)
	flag.Parse()
	if *addr != "" {
		if err := runRemote(os.Stdout, *addr, *query, *timeout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if (*csvPath == "" && *loadPath == "") || (*query == "" && *savePath == "") {
		fmt.Fprintln(os.Stderr, "usage: floodcli -csv FILE [-train \"pred; pred\"] [-save SNAP] -query SQL\n       floodcli -load SNAP -query SQL")
		os.Exit(2)
	}

	var (
		idx flood.Index
		tbl *flood.Table
	)
	if *loadPath != "" {
		t0 := time.Now()
		learned, rep, err := flood.LoadFile(*loadPath)
		if err != nil {
			log.Fatalf("loading snapshot %s: %v", *loadPath, err)
		}
		for _, w := range rep.Warnings {
			fmt.Fprintf(os.Stderr, "recovery: %s\n", w)
		}
		tbl = learned.Table()
		idx = learned
		fmt.Printf("loaded snapshot %s: %d rows x %d columns, layout %s in %v\n",
			*loadPath, tbl.NumRows(), tbl.NumCols(), learned.Layout(), time.Since(t0).Round(time.Millisecond))
	} else {
		var report string
		var err error
		tbl, report, err = loadCSV(*csvPath)
		if err != nil {
			log.Fatalf("loading %s: %v", *csvPath, err)
		}
		fmt.Printf("loaded %d rows x %d columns (%s)\n", tbl.NumRows(), tbl.NumCols(), report)

		if *train == "" {
			fmt.Println("no -train workload: using a full-scan execution plan")
			idx, err = flood.BuildBaseline(flood.FullScan, tbl, flood.BaselineOptions{})
			if err != nil {
				log.Fatal(err)
			}
		} else {
			queries, err := parseTrain(*train, tbl)
			if err != nil {
				log.Fatalf("parsing -train: %v", err)
			}
			t0 := time.Now()
			learned, err := flood.Build(tbl, queries, &flood.Options{Seed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("learned layout %s in %v\n", learned.Layout(), time.Since(t0).Round(time.Millisecond))
			idx = learned
		}
	}

	if *savePath != "" {
		learned, ok := idx.(*flood.Flood)
		if !ok {
			log.Fatal("-save needs a learned index: provide a -train workload")
		}
		if err := learned.SaveFile(*savePath); err != nil {
			log.Fatalf("saving snapshot: %v", err)
		}
		fi, err := os.Stat(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved snapshot %s (%d bytes, checksummed)\n", *savePath, fi.Size())
		if *query == "" {
			return
		}
	}

	st, err := floodsql.Parse(*query, tbl)
	if err != nil {
		log.Fatalf("parsing -query: %v", err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	v, stats, err := st.RunContext(ctx, idx)
	if errors.Is(err, flood.ErrCanceled) {
		log.Fatalf("query exceeded -timeout %v after scanning %d rows", *timeout, stats.Scanned)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n  = %d\n  (%v, scanned %d of %d rows)\n",
		*query, v, stats.Total.Round(time.Microsecond), stats.Scanned, tbl.NumRows())
}

// runRemote speaks to a floodserver, writing answers to out: one statement
// with -query, or a line-per-statement loop over stdin without it.
func runRemote(out io.Writer, addr, query string, timeout time.Duration) error {
	client := &http.Client{}
	run := func(sql string) error {
		body, err := json.Marshal(server.QueryRequest{SQL: sql, TimeoutMillis: timeout.Milliseconds()})
		if err != nil {
			return err
		}
		var r server.QueryResponse
		resp, err := client.Post(addr+"/query", "application/json", bytes.NewReader(body))
		if err := decodeReply(resp, err, &r); err != nil {
			return err
		}
		switch r.Kind {
		case "agg":
			note := ""
			if r.Cached {
				note = ", cached"
			}
			fmt.Fprintf(out, "  = %v (matched %d rows in %dµs%s)\n", r.Typed, r.Matched, r.ElapsedMicros, note)
		case "rows":
			fmt.Fprintln(out, "  "+strings.Join(r.Columns, "\t"))
			for _, row := range r.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = fmt.Sprint(v)
				}
				fmt.Fprintln(out, "  "+strings.Join(parts, "\t"))
			}
			if r.Truncated {
				fmt.Fprintf(out, "  (truncated at %d rows)\n", len(r.Rows))
			}
		case "exec":
			fmt.Fprintf(out, "  %d rows affected (%dµs)\n", r.Affected, r.ElapsedMicros)
		default:
			fmt.Fprintf(out, "  %+v\n", r)
		}
		return nil
	}
	dispatch := func(sql string) error {
		if sql == `\stats` {
			return printServerStats(out, client, addr)
		}
		return run(sql)
	}
	if query != "" {
		fmt.Fprintln(out, query)
		return dispatch(query)
	}
	fmt.Fprintf(os.Stderr, "connected to %s; one statement per line (\\stats for server stats, ctrl-D to exit)\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		sql := strings.TrimSpace(sc.Text())
		if sql == "" {
			continue
		}
		if err := dispatch(sql); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// decodeReply reads one floodserver response into v, turning a non-200 into
// an error carrying the server's error envelope.
func decodeReply(resp *http.Response, err error, v any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("server: %s", e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// printServerStats fetches GET /stats and renders the serving counters, the
// index lifecycle, and — on a sharded server — the per-shard block.
func printServerStats(out io.Writer, client *http.Client, addr string) error {
	var st server.Stats
	resp, err := client.Get(addr + "/stats")
	if err := decodeReply(resp, err, &st); err != nil {
		return err
	}
	fmt.Fprintf(out, "  requests %d (agg %d, select %d, mutate %d), cache %d/%d hit\n",
		st.Requests, st.AggQueries, st.Selects, st.Mutations,
		st.CacheHits, st.CacheHits+st.CacheMisses)
	fmt.Fprintf(out, "  index: epoch %d, %d rows (+%d pending), %d relearns, %d merges, rebuilding=%v\n",
		st.IndexEpoch, st.BaseRows, st.PendingRows, st.Relearns, st.Merges, st.Rebuilding)
	for _, sh := range st.Shards {
		fmt.Fprintf(out, "  shard %d [%d, %d]: %d rows (+%d pending), epoch %d, %d relearns, %d merges, %d queries\n",
			sh.Shard, sh.Lo, sh.Hi, sh.Rows, sh.Pending, sh.Epoch, sh.Relearns, sh.Merges, sh.Queries)
	}
	return nil
}

// parseTrain turns "pred; pred; ..." into sample queries by parsing each
// predicate as a WHERE clause of a COUNT statement.
func parseTrain(train string, tbl *flood.Table) ([]flood.Query, error) {
	var out []flood.Query
	for _, pred := range strings.Split(train, ";") {
		pred = strings.TrimSpace(pred)
		if pred == "" {
			continue
		}
		st, err := floodsql.Parse("SELECT COUNT(*) FROM t WHERE "+pred, tbl)
		if err != nil {
			return nil, fmt.Errorf("predicate %q: %w", pred, err)
		}
		out = append(out, st.Disjuncts...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no usable predicates in %q", train)
	}
	return out, nil
}

// loadCSV reads a headered CSV and encodes every column to int64 per §7.1.
func loadCSV(path string) (*flood.Table, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	header, err := r.Read()
	if err != nil {
		return nil, "", fmt.Errorf("reading header: %w", err)
	}
	names := append([]string(nil), header...)
	raw := make([][]string, len(names))
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", err
		}
		if len(rec) != len(names) {
			return nil, "", fmt.Errorf("row has %d fields, header has %d", len(rec), len(names))
		}
		for c, v := range rec {
			raw[c] = append(raw[c], strings.TrimSpace(v))
		}
	}
	if len(raw[0]) == 0 {
		return nil, "", fmt.Errorf("no data rows")
	}
	cols := make([][]int64, len(names))
	kinds := make([]string, len(names))
	for c := range raw {
		col, kind, err := encodeColumn(raw[c])
		if err != nil {
			return nil, "", fmt.Errorf("column %q: %w", names[c], err)
		}
		cols[c] = col
		kinds[c] = fmt.Sprintf("%s:%s", names[c], kind)
	}
	tbl, err := flood.NewTable(names, cols)
	if err != nil {
		return nil, "", err
	}
	return tbl, strings.Join(kinds, " "), nil
}

// encodeColumn picks the §7.1 encoding: int64 directly, decimal-scaled
// float, or order-preserving dictionary codes.
func encodeColumn(vals []string) ([]int64, string, error) {
	// Try integers.
	ints := make([]int64, len(vals))
	ok := true
	for i, s := range vals {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			ok = false
			break
		}
		ints[i] = v
	}
	if ok {
		return ints, "int", nil
	}
	// Try decimals.
	floats := make([]float64, len(vals))
	ok = true
	for i, s := range vals {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			ok = false
			break
		}
		floats[i] = v
	}
	if ok {
		scaler, col, err := encode.FitDecimalScaler(floats, 6)
		if err != nil {
			return nil, "", err
		}
		return col, fmt.Sprintf("decimal(%d)", scaler.Digits()), nil
	}
	// Fall back to a dictionary.
	dict, col := encode.FitDictionary(vals)
	return col, fmt.Sprintf("dict(%d)", dict.Len()), nil
}

// Package dataset generates the four evaluation datasets of §7.3 plus the
// uniform synthetic data of §7.5. Two of the paper's datasets are
// proprietary (sales, perfmon) and one is a large public dump (OSM); they
// are replaced with synthetic generators matching the distributional
// characteristics the paper reports. All values are int64
// (§7.1): dates become day/second offsets, money becomes cents, coordinates
// become 1e6-scaled fixed-point, and categorical values are dictionary
// codes.
package dataset

import (
	"math"
	"math/rand"

	"flood/internal/colstore"
)

// Dataset is a generated table plus naming metadata.
type Dataset struct {
	Name  string
	Table *colstore.Table
	// Cols holds the raw generated columns (column-major), aliased by the
	// table; kept for ground-truth checks in tests and the harness.
	Cols [][]int64
}

// ColumnIndex returns the position of the named column, or -1.
func (d *Dataset) ColumnIndex(name string) int { return d.Table.ColumnIndex(name) }

func build(name string, names []string, cols [][]int64) *Dataset {
	return &Dataset{Name: name, Table: colstore.MustNewTable(names, cols), Cols: cols}
}

// Sales generates the sales-database stand-in: 6 attributes drawn from a
// commercial order-management schema. The paper reports this dataset as
// "fairly uniform" with a workload dominated by one selective dimension.
func Sales(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	orderID := make([]int64, n)
	customer := make([]int64, n)
	product := make([]int64, n)
	quantity := make([]int64, n)
	priceCents := make([]int64, n)
	dateDay := make([]int64, n)
	nCustomers := uint64(max(n/30, 10))
	nProducts := uint64(max(n/300, 10))
	zipfCust := rand.NewZipf(rng, 1.3, 1, nCustomers-1)
	zipfProd := rand.NewZipf(rng, 1.2, 1, nProducts-1)
	for i := 0; i < n; i++ {
		// Order IDs arrive nearly monotonically with small jitter.
		orderID[i] = int64(i)*3 + rng.Int63n(7)
		customer[i] = int64(zipfCust.Uint64())
		product[i] = int64(zipfProd.Uint64())
		quantity[i] = 1 + int64(math.Abs(rng.NormFloat64())*4)
		priceCents[i] = int64(math.Exp(rng.NormFloat64()*0.8+8) * 100)
		dateDay[i] = rng.Int63n(3 * 365) // three years of orders
	}
	return build("sales",
		[]string{"order_id", "customer", "product", "quantity", "price", "date"},
		[][]int64{orderID, customer, product, quantity, priceCents, dateDay})
}

// TPCH generates the lineitem fact table columns the paper's TPC-H workload
// filters and aggregates (§7.3): 7 dimensions with the spec's distributions,
// including the shipdate→receiptdate correlation.
func TPCH(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	orderkey := make([]int64, n)
	suppkey := make([]int64, n)
	quantity := make([]int64, n)
	extendedprice := make([]int64, n)
	discount := make([]int64, n)
	shipdate := make([]int64, n)
	receiptdate := make([]int64, n)
	nSupp := int64(max(n/300, 10))
	const orderDays = 7 * 365 // 1992-01-01 .. 1998-12-31
	order := int64(0)
	left := 0
	for i := 0; i < n; i++ {
		if left == 0 {
			// TPC-H orders have 1..7 lineitems; orderkeys are sparse
			// (only 1/4 of the key space is used).
			order += 1 + rng.Int63n(4)*3
			left = 1 + rng.Intn(7)
		}
		left--
		orderkey[i] = order
		suppkey[i] = 1 + rng.Int63n(nSupp)
		quantity[i] = 1 + rng.Int63n(50)
		// extendedprice = quantity * part retail price (90k..110k cents).
		extendedprice[i] = quantity[i] * (90000 + rng.Int63n(20001))
		discount[i] = rng.Int63n(11)                  // 0.00 .. 0.10 scaled by 100
		orderdate := rng.Int63n(orderDays - 151)      // leave room for ship+receipt
		shipdate[i] = orderdate + 1 + rng.Int63n(121) // o_orderdate + [1, 121]
		receiptdate[i] = shipdate[i] + 1 + rng.Int63n(30)
	}
	return build("tpch",
		[]string{"orderkey", "suppkey", "quantity", "extendedprice", "discount", "shipdate", "receiptdate"},
		[][]int64{orderkey, suppkey, quantity, extendedprice, discount, shipdate, receiptdate})
}

// OSM generates the OpenStreetMap stand-in: monotone IDs, a recency-skewed
// edit timestamp, heavily clustered GPS coordinates (Gaussian mixture around
// "cities", 1e6 fixed-point degrees), and two Zipf categorical attributes.
func OSM(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	id := make([]int64, n)
	timestamp := make([]int64, n)
	lat := make([]int64, n)
	lon := make([]int64, n)
	typ := make([]int64, n)
	category := make([]int64, n)
	// City centers across the US northeast bounding box.
	type city struct {
		lat, lon float64
		sigma    float64
		weight   float64
	}
	cities := []city{
		{40.71, -74.00, 0.15, 0.30}, // NYC
		{42.36, -71.06, 0.12, 0.20}, // Boston
		{39.95, -75.17, 0.12, 0.15}, // Philadelphia
		{43.05, -76.15, 0.30, 0.10}, // Syracuse
		{41.76, -72.67, 0.20, 0.10}, // Hartford
		{44.48, -73.21, 0.40, 0.05}, // Burlington
	}
	zipfType := rand.NewZipf(rng, 1.4, 1, 7)
	zipfCat := rand.NewZipf(rng, 1.2, 1, 63)
	const tenYears = 10 * 365 * 24 * 3600
	for i := 0; i < n; i++ {
		id[i] = int64(i) * 2
		// Edits are recency-skewed: density grows toward "now".
		timestamp[i] = int64(float64(tenYears) * math.Sqrt(rng.Float64()))
		r := rng.Float64() * 0.9
		var c city
		acc := 0.0
		for _, cc := range cities {
			acc += cc.weight
			if r < acc {
				c = cc
				break
			}
		}
		if c.sigma == 0 { // 10% rural background noise
			lat[i] = int64((39 + rng.Float64()*8) * 1e6)
			lon[i] = int64((-80 + rng.Float64()*10) * 1e6)
		} else {
			lat[i] = int64((c.lat + rng.NormFloat64()*c.sigma) * 1e6)
			lon[i] = int64((c.lon + rng.NormFloat64()*c.sigma) * 1e6)
		}
		typ[i] = int64(zipfType.Uint64())
		category[i] = int64(zipfCat.Uint64())
	}
	return build("osm",
		[]string{"id", "timestamp", "lat", "lon", "type", "category"},
		[][]int64{id, timestamp, lat, lon, typ, category})
}

// Perfmon generates the performance-monitoring stand-in: a year of metrics
// with diurnal timestamps, Zipf machine IDs, and heavy-tailed resource
// usage ("non-uniform and often highly skewed", §7.3).
func Perfmon(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]int64, n)
	machine := make([]int64, n)
	cpu := make([]int64, n)
	mem := make([]int64, n)
	swap := make([]int64, n)
	load := make([]int64, n)
	nMachines := uint64(max(n/2000, 20))
	zipfMachine := rand.NewZipf(rng, 1.1, 1, nMachines-1)
	const year = 365 * 24 * 3600
	for i := 0; i < n; i++ {
		// Diurnal cycle: more samples during work hours.
		day := rng.Int63n(365)
		hour := int64(math.Mod(math.Abs(rng.NormFloat64()*4+14), 24))
		ts[i] = day*86400 + hour*3600 + rng.Int63n(3600)
		machine[i] = int64(zipfMachine.Uint64())
		cpu[i] = int64(math.Min(100, math.Abs(rng.NormFloat64()*25)))    // % busy, mode 0
		mem[i] = int64(math.Min(100, 20+math.Abs(rng.NormFloat64())*22)) // % used
		if rng.Float64() < 0.85 {                                        // swap mostly idle
			swap[i] = 0
		} else {
			swap[i] = int64(math.Exp(rng.NormFloat64()*1.5 + 4))
		}
		load[i] = int64(math.Exp(rng.NormFloat64()*1.0) * 100) // load avg x100
		_ = year
	}
	return build("perfmon",
		[]string{"time", "machine", "cpu", "mem", "swap", "load"},
		[][]int64{ts, machine, cpu, mem, swap, load})
}

// Uniform generates the d-dimensional uniform synthetic dataset of §7.5
// (values uniform over [0, 2^30)).
func Uniform(n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, d)
	names := make([]string, d)
	for j := 0; j < d; j++ {
		cols[j] = make([]int64, n)
		names[j] = "d" + itoa(j)
		for i := 0; i < n; i++ {
			cols[j][i] = rng.Int63n(1 << 30)
		}
	}
	return build("uniform", names, cols)
}

// ByName builds a named evaluation dataset ("sales", "tpch", "osm",
// "perfmon") at the given size. It returns nil for unknown names.
func ByName(name string, n int, seed int64) *Dataset {
	switch name {
	case "sales":
		return Sales(n, seed)
	case "tpch":
		return TPCH(n, seed)
	case "osm":
		return OSM(n, seed)
	case "perfmon":
		return Perfmon(n, seed)
	default:
		return nil
	}
}

// Names lists the four evaluation datasets in the paper's order.
func Names() []string { return []string{"sales", "tpch", "osm", "perfmon"} }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Package encode provides the value encodings §7.1 of the paper assumes:
// the index operates on 64-bit integers, so string attributes are
// dictionary-encoded and floating-point attributes are scaled by the
// smallest power of ten that makes them integral.
package encode

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Dictionary maps strings to dense int64 codes ordered lexicographically, so
// range predicates on the encoded column match lexicographic string ranges.
type Dictionary struct {
	values []string         // code -> string, sorted
	codes  map[string]int64 // string -> code
}

// FitDictionary constructs a dictionary over the distinct values of col and
// returns col's codes with it, in one pass over the column: each row costs one
// lookup in a map that grows with the distinct count, not the row count.
// Rows first take the first-seen id of their value; once the distinct values
// are sorted, each id is replaced by its value's rank.
func FitDictionary(col []string) (*Dictionary, []int64) {
	ids := make(map[string]int64)
	var seen []string // first-seen id -> value
	codes := make([]int64, len(col))
	for i, s := range col {
		id, ok := ids[s]
		if !ok {
			id = int64(len(seen))
			ids[s] = id
			seen = append(seen, s)
		}
		codes[i] = id
	}
	order := make([]int64, len(seen)) // rank -> first-seen id
	for i := range order {
		order[i] = int64(i)
	}
	slices.SortFunc(order, func(a, b int64) int { return strings.Compare(seen[a], seen[b]) })
	values := make([]string, len(seen))
	rank := make([]int64, len(seen)) // first-seen id -> rank
	for r, id := range order {
		values[r] = seen[id]
		rank[id] = int64(r)
		ids[seen[id]] = int64(r)
	}
	for i, id := range codes {
		codes[i] = rank[id]
	}
	return &Dictionary{values: values, codes: ids}, codes
}

// DictionaryFromValues reconstructs a dictionary from its sorted distinct
// values (the Values of a previously built dictionary) — the snapshot decode
// path. The slice must be strictly increasing; anything else is corrupt.
func DictionaryFromValues(values []string) (*Dictionary, error) {
	d := &Dictionary{values: values, codes: make(map[string]int64, len(values))}
	for i, s := range values {
		if i > 0 && values[i-1] >= s {
			return nil, fmt.Errorf("encode: dictionary values not sorted and distinct at %d", i)
		}
		d.codes[s] = int64(i)
	}
	return d, nil
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int { return len(d.values) }

// Code returns the code for s, or (0, false) when s was not in the build
// set.
func (d *Dictionary) Code(s string) (int64, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// Value returns the string for a code; it panics on out-of-range codes.
func (d *Dictionary) Value(code int64) string { return d.values[code] }

// RangeFor translates an inclusive string range into an inclusive code
// range; ok is false when no dictionary value falls inside the range.
// Endpoints need not be present in the dictionary: the range snaps inward
// to the nearest existing values.
func (d *Dictionary) RangeFor(lo, hi string) (loCode, hiCode int64, ok bool) {
	i := sort.SearchStrings(d.values, lo)
	j := sort.Search(len(d.values), func(k int) bool { return d.values[k] > hi }) - 1
	if i > j {
		return 0, 0, false
	}
	return int64(i), int64(j), true
}

// PrefixRange translates a string prefix predicate (LIKE 'abc%') into an
// inclusive code range.
func (d *Dictionary) PrefixRange(prefix string) (loCode, hiCode int64, ok bool) {
	i := sort.SearchStrings(d.values, prefix)
	j := sort.Search(len(d.values), func(k int) bool {
		return k >= len(d.values) || !hasPrefix(d.values[k], prefix)
	})
	// j is the first index past the prefix run starting at i.
	j = i + sort.Search(len(d.values)-i, func(k int) bool { return !hasPrefix(d.values[i+k], prefix) })
	if i >= j {
		return 0, 0, false
	}
	return int64(i), int64(j - 1), true
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// LowerBound returns the first code whose value sorts >= s (possibly Len(),
// one past the last code). With UpperBound it translates one-sided string
// comparisons into code ranges: v >= s is [LowerBound(s), Len()-1] and
// v < s is [0, LowerBound(s)-1].
func (d *Dictionary) LowerBound(s string) int64 {
	return int64(sort.SearchStrings(d.values, s))
}

// UpperBound returns the first code whose value sorts > s (possibly Len()).
// v > s is [UpperBound(s), Len()-1] and v <= s is [0, UpperBound(s)-1].
func (d *Dictionary) UpperBound(s string) int64 {
	return int64(sort.Search(len(d.values), func(k int) bool { return d.values[k] > s }))
}

// Values returns the dictionary's sorted distinct values (shared, read-only).
func (d *Dictionary) Values() []string { return d.values }

// DecimalScaler converts floating-point values to integers by multiplying
// with 10^digits, per §7.1 ("we scale all values by the smallest power of 10
// that converts them to integers").
type DecimalScaler struct {
	digits int
	factor float64
}

// NewDecimalScaler builds a scaler with a fixed number of decimal digits.
func NewDecimalScaler(digits int) (*DecimalScaler, error) {
	if digits < 0 || digits > 18 {
		return nil, fmt.Errorf("encode: digits %d out of [0, 18]", digits)
	}
	return &DecimalScaler{digits: digits, factor: math.Pow(10, float64(digits))}, nil
}

// FitDecimalScaler finds the smallest digit count (up to maxDigits, at most
// 9) that represents every value exactly, e.g. prices with 2 decimal places,
// and returns col's codes at that count from the pass that proved it exact.
// A value that is exact but outside int64 at the chosen count (±Inf, 2^63)
// fails as Encode fails on it.
func FitDecimalScaler(col []float64, maxDigits int) (*DecimalScaler, []int64, error) {
	if maxDigits > 9 {
		maxDigits = 9
	}
	codes := make([]int64, len(col))
	for digits := 0; digits <= maxDigits; digits++ {
		factor := math.Pow(10, float64(digits))
		exact, bad := true, -1
		for i, v := range col {
			// Binary floats cannot represent most decimals exactly
			// (123.45*100 = 12344.999...), so the representability test is
			// a round trip: the nearest integer code must decode back to
			// exactly v. A fixed tolerance would silently accept lossy
			// scalings (0.1234567891 at 9 digits, 1e-10 at 0 digits).
			r := math.Round(v * factor)
			if r/factor != v {
				exact = false
				break
			}
			// NaN never gets here (it fails the round trip); >= as in Encode.
			if r >= math.MaxInt64 || r < math.MinInt64 {
				if bad < 0 {
					bad = i
				}
				continue
			}
			codes[i] = int64(r)
		}
		if !exact {
			continue
		}
		if bad >= 0 {
			return nil, nil, fmt.Errorf("encode: value %g not representable at %d digits", col[bad], digits)
		}
		s, err := NewDecimalScaler(digits)
		return s, codes, err
	}
	return nil, nil, fmt.Errorf("encode: values need more than %d decimal digits", maxDigits)
}

// Digits returns the number of preserved decimal digits.
func (s *DecimalScaler) Digits() int { return s.digits }

// Encode scales a float column to integers, rounding to the scaler's
// precision.
func (s *DecimalScaler) Encode(col []float64) ([]int64, error) {
	out := make([]int64, len(col))
	for i, v := range col {
		scaled := math.Round(v * s.factor)
		// >= on the upper bound: float64(MaxInt64) is exactly 2^63, which
		// does NOT fit in int64 — a plain > would let it through and the
		// conversion would wrap to MinInt64.
		if math.IsNaN(scaled) || scaled >= math.MaxInt64 || scaled < math.MinInt64 {
			return nil, fmt.Errorf("encode: value %g not representable at %d digits", v, s.digits)
		}
		out[i] = int64(scaled)
	}
	return out, nil
}

// EncodeExact scales one value a column must store as written: its code must
// decode back to exactly v and fit int64, or it is refused with an error. A
// value between two codes (1.005 at two digits) is never rounded to a
// neighbour, and NaN and ±Inf are refused. Every row-at-a-time write —
// Schema.EncodeRow and SQL INSERT and UPDATE — goes through it.
func (s *DecimalScaler) EncodeExact(v float64) (int64, error) {
	r := math.Round(v * s.factor)
	// NaN fails the round trip. >= on the upper bound: see Encode.
	if r/s.factor != v || r >= math.MaxInt64 || r < math.MinInt64 {
		return 0, fmt.Errorf("encode: value %g not representable at %d digits", v, s.digits)
	}
	return int64(r), nil
}

// Decode converts a scaled integer back to a float.
func (s *DecimalScaler) Decode(v int64) float64 { return float64(v) / s.factor }

// EncodeLower converts a lower query bound: the smallest integer code whose
// decoded value is >= v (ceil, snapped to the scaler's precision). Using
// directed rounding for bounds keeps range predicates conservative when a
// query endpoint carries more precision than the column stores. Unlike
// Encode, out-of-range endpoints are legal in a predicate: they clamp to the
// int64 domain (v beyond every representable code yields MaxInt64, so the
// range is empty; v below every code yields MinInt64, so the bound is
// vacuous), and NaN yields MaxInt64 (an unsatisfiable lower bound).
func (s *DecimalScaler) EncodeLower(v float64) int64 {
	x := math.Ceil(s.snap(v))
	if math.IsNaN(x) || x >= math.MaxInt64 {
		return math.MaxInt64
	}
	if x <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(x)
}

// EncodeUpper converts an upper query bound: the largest integer code whose
// decoded value is <= v (floor, snapped to the scaler's precision),
// clamping out-of-range endpoints to the int64 domain; NaN yields MinInt64
// (an unsatisfiable upper bound).
func (s *DecimalScaler) EncodeUpper(v float64) int64 {
	x := math.Floor(s.snap(v))
	if math.IsNaN(x) || x <= math.MinInt64 {
		return math.MinInt64
	}
	if x >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(x)
}

// snap collapses v*factor onto the nearest integer code exactly when that
// code decodes back to v — the precise test for "v is a representable
// value up to binary-float noise" (9.99*100 = 998.999…94 snaps to 999
// because 999/100 == 9.99 in float64). A fixed relative tolerance would be
// millions of ULPs wide at large magnitudes and swallow genuinely sub-code
// endpoints like 5000000.004.
func (s *DecimalScaler) snap(v float64) float64 {
	x := v * s.factor
	r := math.Round(x)
	if r/s.factor == v {
		return r
	}
	return x
}

// TimeCodec converts time.Time values to int64 ticks of a fixed unit since
// the Unix epoch, completing the §7.1 encoding set for timestamp attributes.
// The zero value uses nanosecond ticks.
//
// Tick math avoids the UnixNano intermediate wherever the unit allows, so
// the representable range genuinely grows with the unit: nanosecond ticks
// cover 1678–2262 (the UnixNano window), any coarser divisor of a second
// covers proportionally more, and second-or-coarser units cover the full
// time.Time range. Only units that divide neither into nor by a whole
// second (e.g. 1.5s) fall back to nanosecond math and its window.
type TimeCodec struct {
	// Unit is the tick size (default time.Nanosecond).
	Unit time.Duration
}

func (c TimeCodec) unit() int64 {
	if c.Unit <= 0 {
		return 1
	}
	return int64(c.Unit)
}

const nsPerSec = int64(time.Second)

// ticker is a unit's tick math with its case settled: perSec > 0 for a
// sub-second unit dividing the second (perSec ticks a second), secs > 0 for a
// whole-second multiple, neither for nanosecond math.
type ticker struct{ u, perSec, secs int64 }

func (c TimeCodec) ticker() ticker {
	u := c.unit()
	switch {
	case nsPerSec%u == 0:
		return ticker{u: u, perSec: nsPerSec / u}
	case u%nsPerSec == 0:
		return ticker{u: u, secs: u / nsPerSec}
	default:
		return ticker{u: u}
	}
}

// split returns t's tick (floored toward negative infinity) and whether t
// lies strictly inside the tick (a nonzero remainder), computed without
// overflowing for out-of-nano-window times when the unit permits.
func (c TimeCodec) split(t time.Time) (tick int64, inexact bool) {
	return c.ticker().split(t)
}

func (k ticker) split(t time.Time) (tick int64, inexact bool) {
	switch {
	case k.perSec > 0:
		nsec := int64(t.Nanosecond()) // in [0, 1e9)
		return t.Unix()*k.perSec + nsec/k.u, nsec%k.u != 0
	case k.secs > 0:
		sec := t.Unix()
		q := floorDiv(sec, k.secs)
		return q, (sec-q*k.secs) != 0 || t.Nanosecond() != 0
	default:
		n := t.UnixNano()
		q := floorDiv(n, k.u)
		return q, n != q*k.u
	}
}

// EncodeValue converts one timestamp to ticks, flooring toward negative
// infinity — truncation toward zero would make pre-epoch timestamps encode
// non-monotonically and collide with post-epoch ticks.
func (c TimeCodec) EncodeValue(t time.Time) int64 {
	tick, _ := c.split(t)
	return tick
}

// EncodeLower converts a lower time bound: the smallest tick whose decoded
// time is >= t (ceiling division). With EncodeUpper it gives time-range
// predicates the same conservative directed rounding float bounds get.
func (c TimeCodec) EncodeLower(t time.Time) int64 {
	tick, inexact := c.split(t)
	if inexact {
		tick++
	}
	return tick
}

// EncodeUpper converts an upper time bound: the largest tick whose decoded
// time is <= t (floor division, same as EncodeValue).
func (c TimeCodec) EncodeUpper(t time.Time) int64 { return c.EncodeValue(t) }

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(n, d int64) int64 {
	q := n / d
	if n%d != 0 && (n < 0) != (d < 0) {
		q--
	}
	return q
}

// Encode converts a timestamp column to ticks, settling the unit's case once
// for the column rather than once a row.
func (c TimeCodec) Encode(col []time.Time) []int64 {
	k := c.ticker()
	out := make([]int64, len(col))
	for i, t := range col {
		out[i], _ = k.split(t)
	}
	return out
}

// Decode converts ticks back to a UTC timestamp, mirroring split's
// overflow-safe paths so coarse-unit ticks outside the nanosecond window
// round-trip exactly.
func (c TimeCodec) Decode(v int64) time.Time {
	u := c.unit()
	switch {
	case nsPerSec%u == 0:
		k := nsPerSec / u
		sec := floorDiv(v, k)
		return time.Unix(sec, (v-sec*k)*u).UTC()
	case u%nsPerSec == 0:
		return time.Unix(v*(u/nsPerSec), 0).UTC()
	default:
		return time.Unix(0, v*u).UTC()
	}
}

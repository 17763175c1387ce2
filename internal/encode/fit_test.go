package encode

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// referenceDictionary is the two-step fit FitDictionary replaced: collect the
// distinct values, sort them, then look every row up again.
func referenceDictionary(col []string) ([]string, []int64) {
	seen := make(map[string]bool, len(col))
	for _, s := range col {
		seen[s] = true
	}
	values := make([]string, 0, len(seen))
	for s := range seen {
		values = append(values, s)
	}
	sort.Strings(values)
	codes := make([]int64, len(col))
	for i, s := range col {
		codes[i] = int64(sort.SearchStrings(values, s))
	}
	return values, codes
}

// referenceDecimal is the two-step fit FitDecimalScaler replaced: infer the
// smallest exact digit count, then encode the column again at that count.
func referenceDecimal(col []float64, maxDigits int) (*DecimalScaler, []int64, error) {
	maxDigits = min(maxDigits, 9)
	for digits := 0; digits <= maxDigits; digits++ {
		factor := math.Pow(10, float64(digits))
		exact := true
		for _, v := range col {
			if math.Round(v*factor)/factor != v {
				exact = false
				break
			}
		}
		if !exact {
			continue
		}
		s, err := NewDecimalScaler(digits)
		if err != nil {
			return nil, nil, err
		}
		codes, err := s.Encode(col)
		if err != nil {
			return nil, nil, err
		}
		return s, codes, nil
	}
	return nil, nil, fmt.Errorf("encode: values need more than %d decimal digits", maxDigits)
}

// checkFitDictionary holds FitDictionary to the sort-based reference: the
// same sorted values, the same codes, a Code for every value that agrees, and
// codes ordered as their strings are.
func checkFitDictionary(t *testing.T, col []string) {
	t.Helper()
	d, codes := FitDictionary(col)
	values, want := referenceDictionary(col)
	if !slices.Equal(d.Values(), values) {
		t.Fatalf("values %q, want %q", d.Values(), values)
	}
	if !slices.Equal(codes, want) {
		t.Fatalf("codes %v, want %v", codes, want)
	}
	for i, s := range col {
		if c, ok := d.Code(s); !ok || c != codes[i] {
			t.Fatalf("Code(%q) = (%d, %v), row %d has %d", s, c, ok, i, codes[i])
		}
		if i > 0 && strings.Compare(col[i-1], s) != cmp.Compare(codes[i-1], codes[i]) {
			t.Fatalf("rows %d, %d: %q vs %q ordered unlike codes %d vs %d", i-1, i, col[i-1], s, codes[i-1], codes[i])
		}
	}
}

func TestFitDictionaryMatchesReference(t *testing.T) {
	for _, col := range [][]string{
		nil,
		{""},
		{"b", "a", "b", "", "a"},
		{"nyc", "nyc", "nyc"},
		{"\xff", "\x00", "a\x00", "a"},
		strings.Fields("the quick brown fox jumps over the lazy dog the end"),
	} {
		checkFitDictionary(t, col)
	}
}

// FuzzFitDictionary splits the input on '|' into a column: codes must equal
// the sort-based reference and order the rows as their strings.
func FuzzFitDictionary(f *testing.F) {
	for _, seed := range []string{"", "|", "a|b|a", "nyc|boston|nyc|atlanta|", "\xff|\x00|a\x00|a"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkFitDictionary(t, strings.Split(s, "|"))
	})
}

// TestTimeCodecEncodeMatchesDefinition holds the column path, which settles
// the unit's case once, and EncodeValue to the definition — UnixNano floored
// to the unit — in all three cases (a divisor of the second, a whole-second
// multiple, neither), across the epoch and inside the UnixNano window.
func TestTimeCodecEncodeMatchesDefinition(t *testing.T) {
	var col []time.Time
	for ns := int64(-3e9); ns <= 3e9; ns += 123_456_789 {
		col = append(col, time.Unix(0, ns), time.Unix(ns, ns%1e9).UTC())
	}
	for _, unit := range []time.Duration{0, time.Nanosecond, time.Microsecond, 250 * time.Millisecond,
		time.Second, time.Minute, 24 * time.Hour, 1500 * time.Millisecond, 7 * time.Nanosecond} {
		c := TimeCodec{Unit: unit}
		got := c.Encode(col)
		for i, ts := range col {
			want := floorDiv(ts.UnixNano(), max(int64(unit), 1))
			if got[i] != want || c.EncodeValue(ts) != want {
				t.Fatalf("unit %v, %v: Encode %d, EncodeValue %d, want %d", unit, ts, got[i], c.EncodeValue(ts), want)
			}
		}
	}
}

// TestFitDecimalScalerMatchesReference holds the one-pass fit to infer then
// encode on the edges of both steps: sub-precision and 10-digit values (no
// exact count), 2^63 and ±Inf (exact, but outside int64), NaN (never exact),
// -0, and an out-of-range value that a later inexact value moves past.
func TestFitDecimalScalerMatchesReference(t *testing.T) {
	for _, col := range [][]float64{
		nil,
		{1e-10},
		{0.1234567891},
		{0.123456789},
		{9.223372036854775808e18},
		{1, 9.223372036854775808e18, 2},
		{math.NaN()},
		{1.5, math.NaN()},
		{math.Copysign(0, -1), 0, 1.25},
		{math.Inf(1)},
		{math.Inf(-1), 0.5},
		{9.223372036854775808e18, 0.5},
		{1e17, 0.25},
		{123.45, -99.99, 1e6, 0.001},
	} {
		s, codes, err := FitDecimalScaler(col, 9)
		ws, wcodes, werr := referenceDecimal(col, 9)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%v: err %v, reference %v", col, err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("%v: err %q, reference %q", col, err, werr)
			}
			continue
		}
		if s.Digits() != ws.Digits() || !slices.Equal(codes, wcodes) {
			t.Fatalf("%v: digits %d codes %v, reference %d %v", col, s.Digits(), codes, ws.Digits(), wcodes)
		}
	}
}

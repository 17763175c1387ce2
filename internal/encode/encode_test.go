package encode

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestDictionaryRoundtrip(t *testing.T) {
	col := []string{"cherry", "apple", "banana", "apple", "date", "banana"}
	d, codes := FitDictionary(col)
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	for i, c := range codes {
		if d.Value(c) != col[i] {
			t.Fatalf("roundtrip failed at %d: %q", i, d.Value(c))
		}
		if k, ok := d.Code(col[i]); !ok || k != c {
			t.Fatalf("Code(%q) = (%d, %v), want (%d, true)", col[i], k, ok, c)
		}
	}
	if _, ok := d.Code("elderberry"); ok {
		t.Fatal("unknown value should have no code")
	}
}

func TestDictionaryOrderPreserving(t *testing.T) {
	f := func(raw []string) bool {
		if len(raw) < 2 {
			return true
		}
		d, _ := FitDictionary(raw)
		for i := 0; i < len(raw)-1; i++ {
			a, _ := d.Code(raw[i])
			b, _ := d.Code(raw[i+1])
			if (raw[i] < raw[i+1]) != (a < b) && raw[i] != raw[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryRangeFor(t *testing.T) {
	d, _ := FitDictionary([]string{"ant", "bee", "cat", "dog", "eel"})
	lo, hi, ok := d.RangeFor("bee", "dog")
	if !ok || d.Value(lo) != "bee" || d.Value(hi) != "dog" {
		t.Fatalf("RangeFor(bee, dog) = (%d, %d, %v)", lo, hi, ok)
	}
	// Endpoints between dictionary values snap inward.
	lo, hi, ok = d.RangeFor("ba", "cz")
	if !ok || d.Value(lo) != "bee" || d.Value(hi) != "cat" {
		t.Fatalf("RangeFor(ba, cz) snapped to (%q, %q)", d.Value(lo), d.Value(hi))
	}
	if _, _, ok := d.RangeFor("x", "z"); ok {
		t.Fatal("empty range should report ok=false")
	}
	if _, _, ok := d.RangeFor("dog", "bee"); ok {
		t.Fatal("inverted range should report ok=false")
	}
}

func TestDictionaryPrefixRange(t *testing.T) {
	d, _ := FitDictionary([]string{"car", "card", "care", "cart", "cat", "dog"})
	lo, hi, ok := d.PrefixRange("car")
	if !ok {
		t.Fatal("prefix car should match")
	}
	if d.Value(lo) != "car" || d.Value(hi) != "cart" {
		t.Fatalf("prefix range = [%q, %q]", d.Value(lo), d.Value(hi))
	}
	if _, _, ok := d.PrefixRange("z"); ok {
		t.Fatal("no matches should report ok=false")
	}
	lo, hi, ok = d.PrefixRange("do")
	if !ok || d.Value(lo) != "dog" || d.Value(hi) != "dog" {
		t.Fatal("single-match prefix wrong")
	}
}

func TestDecimalScaler(t *testing.T) {
	s, err := NewDecimalScaler(2)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := s.Encode([]float64{1.23, 0, -99.99, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{123, 0, -9999, 100_000_000}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("Encode[%d] = %d, want %d", i, codes[i], want[i])
		}
	}
	if s.Decode(123) != 1.23 {
		t.Fatalf("Decode(123) = %f", s.Decode(123))
	}
	if _, err := NewDecimalScaler(40); err == nil {
		t.Fatal("excessive digits should fail")
	}
}

func TestFitDecimalScaler(t *testing.T) {
	s, codes, err := FitDecimalScaler([]float64{1.25, 3.5, 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Digits() != 2 {
		t.Fatalf("inferred %d digits, want 2", s.Digits())
	}
	if !slices.Equal(codes, []int64{125, 350, 700}) {
		t.Fatalf("codes = %v, want [125 350 700]", codes)
	}
	s, _, err = FitDecimalScaler([]float64{1, 2, 3}, 6)
	if err != nil || s.Digits() != 0 {
		t.Fatal("integral floats should infer 0 digits")
	}
	if _, _, err := FitDecimalScaler([]float64{1.0 / 3.0}, 6); err == nil {
		t.Fatal("non-terminating decimal should fail")
	}
}

func TestDictionaryLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw := make([]string, 5000)
	for i := range raw {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		raw[i] = string(b)
	}
	_, codes := FitDictionary(raw)
	// Sorting by code must equal sorting by string.
	idx := make([]int, len(raw))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return codes[idx[a]] < codes[idx[b]] })
	for i := 1; i < len(idx); i++ {
		if raw[idx[i-1]] > raw[idx[i]] {
			t.Fatal("code order disagrees with string order")
		}
	}
}

func TestDictionaryBounds(t *testing.T) {
	d, _ := FitDictionary([]string{"ant", "bee", "cat", "dog"})
	cases := []struct {
		s            string
		lower, upper int64
	}{
		{"", 0, 0},
		{"ant", 0, 1},
		{"bat", 1, 1},
		{"dog", 3, 4},
		{"eel", 4, 4},
	}
	for _, c := range cases {
		if got := d.LowerBound(c.s); got != c.lower {
			t.Errorf("LowerBound(%q) = %d, want %d", c.s, got, c.lower)
		}
		if got := d.UpperBound(c.s); got != c.upper {
			t.Errorf("UpperBound(%q) = %d, want %d", c.s, got, c.upper)
		}
	}
}

func TestDecimalScalerDirectedBounds(t *testing.T) {
	s, err := NewDecimalScaler(2)
	if err != nil {
		t.Fatal(err)
	}
	// Exact endpoints land on their code despite binary-float noise.
	if lo := s.EncodeLower(9.99); lo != 999 {
		t.Fatalf("EncodeLower(9.99) = %d, want 999", lo)
	}
	if hi := s.EncodeUpper(9.99); hi != 999 {
		t.Fatalf("EncodeUpper(9.99) = %d, want 999", hi)
	}
	// Over-precise endpoints round conservatively inward.
	if lo := s.EncodeLower(1.501); lo != 151 {
		t.Fatalf("EncodeLower(1.501) = %d, want 151", lo)
	}
	if hi := s.EncodeUpper(1.509); hi != 150 {
		t.Fatalf("EncodeUpper(1.509) = %d, want 150", hi)
	}
}

func TestTimeCodecRoundTrip(t *testing.T) {
	for _, unit := range []time.Duration{0, time.Nanosecond, time.Microsecond, time.Second} {
		c := TimeCodec{Unit: unit}
		u := unit
		if u <= 0 {
			u = time.Nanosecond
		}
		ts := time.Date(2023, 7, 14, 9, 30, 21, 500_000_000, time.UTC).Truncate(u)
		if got := c.Decode(c.EncodeValue(ts)); !got.Equal(ts) {
			t.Errorf("unit %v: round trip %v != %v", unit, got, ts)
		}
	}
	c := TimeCodec{Unit: time.Millisecond}
	col := []time.Time{time.UnixMilli(1000).UTC(), time.UnixMilli(2500).UTC()}
	enc := c.Encode(col)
	if enc[0] != 1000 || enc[1] != 2500 {
		t.Fatalf("Encode = %v", enc)
	}
}

func TestTimeCodecFloorsPreEpoch(t *testing.T) {
	c := TimeCodec{Unit: time.Second}
	// 0.4s before and after the epoch must land in different ticks; truncation
	// toward zero would collide both on tick 0.
	pre := c.EncodeValue(time.Unix(0, -400_000_000))
	post := c.EncodeValue(time.Unix(0, 400_000_000))
	if pre != -1 || post != 0 {
		t.Fatalf("pre/post epoch ticks = %d/%d, want -1/0", pre, post)
	}
	// Monotone across the epoch.
	last := c.EncodeValue(time.Unix(-3, 0))
	for ns := int64(-2_500_000_000); ns <= 2_500_000_000; ns += 250_000_000 {
		v := c.EncodeValue(time.Unix(0, ns))
		if v < last {
			t.Fatalf("EncodeValue not monotone at %dns: %d after %d", ns, v, last)
		}
		last = v
	}
	// Directed bounds: lower ceils, upper floors.
	at := time.Unix(100, 500_000_000) // 100.5s
	if lo := c.EncodeLower(at); lo != 101 {
		t.Fatalf("EncodeLower(100.5s) = %d, want 101", lo)
	}
	if hi := c.EncodeUpper(at); hi != 100 {
		t.Fatalf("EncodeUpper(100.5s) = %d, want 100", hi)
	}
	exact := time.Unix(100, 0)
	if lo, hi := c.EncodeLower(exact), c.EncodeUpper(exact); lo != 100 || hi != 100 {
		t.Fatalf("exact endpoint bounds = %d/%d, want 100/100", lo, hi)
	}
}

func TestTimeCodecCoarseUnitsExtendRange(t *testing.T) {
	far := time.Date(2400, 1, 1, 12, 30, 15, 0, time.UTC) // outside the UnixNano window
	for _, unit := range []time.Duration{time.Second, time.Minute, time.Millisecond} {
		c := TimeCodec{Unit: unit}
		got := c.Decode(c.EncodeValue(far.Truncate(unit)))
		if !got.Equal(far.Truncate(unit)) {
			t.Errorf("unit %v: year-2400 round trip = %v", unit, got)
		}
		// Monotone across the window edge.
		edge := time.Unix(math.MaxInt64/int64(time.Second), 0)
		if c.EncodeValue(far) <= c.EncodeValue(time.Unix(0, 0)) {
			t.Errorf("unit %v: far-future tick not after epoch", unit)
		}
		_ = edge
	}
	// Directed bounds stay correct out of window.
	c := TimeCodec{Unit: time.Minute}
	mid := far.Truncate(time.Minute).Add(30 * time.Second)
	if lo, hi := c.EncodeLower(mid), c.EncodeUpper(mid); lo != hi+1 {
		t.Fatalf("sub-tick bound out of window: lo %d, hi %d", lo, hi)
	}
}

func TestDecimalScalerSnapIsExact(t *testing.T) {
	s, err := NewDecimalScaler(2)
	if err != nil {
		t.Fatal(err)
	}
	// Large-magnitude endpoints a hair past a code must NOT collapse onto it.
	if lo := s.EncodeLower(5000000.004); lo != 500000001 {
		t.Fatalf("EncodeLower(5000000.004) = %d, want 500000001", lo)
	}
	if hi := s.EncodeUpper(5000000.004); hi != 500000000 {
		t.Fatalf("EncodeUpper(5000000.004) = %d, want 500000000", hi)
	}
	// Representable large values still land exactly on their code.
	if lo, hi := s.EncodeLower(5000000.25), s.EncodeUpper(5000000.25); lo != 500000025 || hi != 500000025 {
		t.Fatalf("exact large endpoint = [%d, %d], want [500000025, 500000025]", lo, hi)
	}
}

func TestFitDecimalScalerRejectsLossy(t *testing.T) {
	if _, _, err := FitDecimalScaler([]float64{1e-10}, 9); err == nil {
		t.Fatal("sub-precision value should fail inference, not round to 0")
	}
	if _, _, err := FitDecimalScaler([]float64{0.1234567891}, 9); err == nil {
		t.Fatal("10-digit value should fail 9-digit inference, not round")
	}
	s, _, err := FitDecimalScaler([]float64{0.123456789}, 9)
	if err != nil || s.Digits() != 9 {
		t.Fatalf("9-digit value inferred (%v, %v)", s, err)
	}
}

func TestEncodeExactRejectsBoundary(t *testing.T) {
	s, err := NewDecimalScaler(0)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly 2^63 is not representable in int64: must error, not wrap.
	if v, err := s.EncodeExact(9.223372036854775808e18); err == nil {
		t.Fatalf("EncodeExact(2^63) = %d, want error", v)
	}
	if _, err := s.Encode([]float64{9.223372036854775808e18}); err == nil {
		t.Fatal("Encode(2^63) should error, not wrap")
	}
	if v, err := s.EncodeExact(9.2e18); err != nil || v != 9200000000000000000 {
		t.Fatalf("EncodeExact(9.2e18) = (%d, %v)", v, err)
	}
	// Between two codes is refused, not rounded; so are NaN and infinities.
	s2, _ := NewDecimalScaler(2)
	for _, v := range []float64{1.005, 2.675, 0.001, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if c, err := s2.EncodeExact(v); err == nil {
			t.Errorf("EncodeExact(%v) at 2 digits = %d, want error", v, c)
		}
	}
	for v, want := range map[float64]int64{1.25: 125, 0.1: 10, 9.99: 999, -3.07: -307, 0: 0} {
		if c, err := s2.EncodeExact(v); err != nil || c != want {
			t.Errorf("EncodeExact(%v) at 2 digits = (%d, %v), want %d", v, c, err, want)
		}
	}
}

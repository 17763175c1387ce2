package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundtripAllTypes(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.Tag("TAG!")
	w.U64(math.MaxUint64)
	w.I64(math.MinInt64)
	w.Int(-42)
	w.U8(255)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.Str("hello, 世界")
	w.I64s([]int64{-1, 0, 1})
	w.U64s([]uint64{7})
	w.U32s([]uint32{1, 2, 3})
	w.I32s([]int32{-9, 9})
	w.U8s([]byte{0xde, 0xad})
	w.Ints([]int{5, -5})
	w.Strs([]string{"a", "", "c"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReaderBytes(buf.Bytes())
	r.Expect("TAG!")
	if r.U64() != math.MaxUint64 || r.I64() != math.MinInt64 || r.Int() != -42 {
		t.Fatal("integer roundtrip failed")
	}
	if r.U8() != 255 || !r.Bool() || r.Bool() {
		t.Fatal("small-type roundtrip failed")
	}
	if r.F64() != math.Pi || r.Str() != "hello, 世界" {
		t.Fatal("f64/string roundtrip failed")
	}
	i64s := r.I64s()
	if len(i64s) != 3 || i64s[0] != -1 || i64s[2] != 1 {
		t.Fatal("i64s roundtrip failed")
	}
	if u := r.U64s(); len(u) != 1 || u[0] != 7 {
		t.Fatal("u64s roundtrip failed")
	}
	if u := r.U32s(); len(u) != 3 || u[2] != 3 {
		t.Fatal("u32s roundtrip failed")
	}
	if v := r.I32s(); len(v) != 2 || v[0] != -9 {
		t.Fatal("i32s roundtrip failed")
	}
	if b := r.U8s(); len(b) != 2 || b[0] != 0xde {
		t.Fatal("u8s roundtrip failed")
	}
	if v := r.Ints(); len(v) != 2 || v[1] != -5 {
		t.Fatal("ints roundtrip failed")
	}
	if s := r.Strs(); len(s) != 3 || s[1] != "" {
		t.Fatal("strs roundtrip failed")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(a []int64, b []float64, s string) bool {
		var buf bytes.Buffer
		w := newWriter(&buf)
		w.I64s(a)
		for _, v := range b {
			w.F64(v)
		}
		w.Str(s)
		if w.Flush() != nil {
			return false
		}
		r := NewReaderBytes(buf.Bytes())
		ga := r.I64s()
		gb := make([]float64, len(b))
		for i := range gb {
			gb[i] = r.F64()
		}
		gs := r.Str()
		if r.Err() != nil || gs != s || len(ga) != len(a) {
			return false
		}
		for i := range a {
			if ga[i] != a[i] {
				return false
			}
		}
		for i := range b {
			// NaN compares unequal to itself; compare bit patterns.
			if math.Float64bits(gb[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyErrors(t *testing.T) {
	r := NewReaderBytes([]byte{1, 2})
	_ = r.U64() // short read
	if r.Err() == nil {
		t.Fatal("short read should error")
	}
	// Subsequent reads stay failed and return zero values.
	if r.U64() != 0 || r.Str() != "" || r.I64s() != nil {
		t.Fatal("sticky error should zero subsequent reads")
	}
}

func TestExpectMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.Tag("AAAA")
	w.Flush()
	r := NewReaderBytes(buf.Bytes())
	r.Expect("BBBB")
	if r.Err() == nil {
		t.Fatal("tag mismatch should error")
	}
}

func TestHostileLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.I64(math.MaxInt64) // absurd length prefix
	w.Flush()
	r := NewReaderBytes(buf.Bytes())
	if r.I64s(); r.Err() == nil {
		t.Fatal("absurd length must be rejected, not allocated")
	}
}

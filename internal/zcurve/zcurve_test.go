package zcurve

import (
	"math/rand"
	"testing"
)

func seqOrder(d int) []int {
	o := make([]int, d)
	for i := range o {
		o[i] = i
	}
	return o
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, d := range []int{1, 2, 3, 6, 7} {
		mins := make([]int64, d)
		maxs := make([]int64, d)
		for i := range maxs {
			maxs[i] = 1000
		}
		e := NewEncoder(mins, maxs, seqOrder(d))
		rng := rand.New(rand.NewSource(int64(d)))
		point := make([]int64, d)
		for trial := 0; trial < 200; trial++ {
			for i := range point {
				point[i] = rng.Int63n(1001)
			}
			z := e.Encode(point)
			for dim := range point {
				if got, want := e.DecodePart(z, dim), e.Part(dim, point[dim]); got != want {
					t.Fatalf("d=%d dim=%d: decode %d, want %d", d, dim, got, want)
				}
			}
		}
	}
}

func TestEncodeOrderControlsLSB(t *testing.T) {
	// With order {1, 0}, dimension 1 owns the LSB.
	e := NewEncoder([]int64{0, 0}, []int64{3, 3}, []int{1, 0})
	if z := e.Encode([]int64{0, 1}); z&1 != 1 {
		t.Fatalf("dim 1 should own LSB, code = %b", z)
	}
	if z := e.Encode([]int64{1, 0}); z&2 != 2 {
		t.Fatalf("dim 0 should own bit 1, code = %b", z)
	}
}

func TestEncodeMonotoneInEachDim(t *testing.T) {
	e := NewEncoder([]int64{0, 0}, []int64{255, 255}, seqOrder(2))
	// Increasing one coordinate (others fixed) must not decrease the code.
	for x := int64(0); x < 255; x++ {
		if e.Encode([]int64{x, 7}) >= e.Encode([]int64{x + 1, 7}) {
			t.Fatalf("code not increasing in dim 0 at %d", x)
		}
	}
}

func TestEncodeWideDomainsQuantize(t *testing.T) {
	// Domains wider than 2^(64/d) must quantize without overflow.
	d := 4
	mins := []int64{-1 << 40, 0, -5, 1 << 30}
	maxs := []int64{1 << 40, 1 << 50, 5, 1<<30 + 100}
	e := NewEncoder(mins, maxs, seqOrder(d))
	for dim := 0; dim < d; dim++ {
		lo := e.Part(dim, mins[dim])
		hi := e.Part(dim, maxs[dim])
		if lo > hi {
			t.Fatalf("dim %d: quantized lo %d > hi %d", dim, lo, hi)
		}
		if hi >= 1<<e.bitsPer {
			t.Fatalf("dim %d: quantized hi %d exceeds %d bits", dim, hi, e.bitsPer)
		}
	}
}

func bruteBigMin(e *Encoder, z uint64, loParts, hiParts []uint64) (uint64, bool) {
	d := e.d
	best := ^uint64(0)
	found := false
	// Enumerate the rectangle (small in tests).
	var rec func(dim int, parts []uint64)
	parts := make([]uint64, d)
	rec = func(dim int, parts []uint64) {
		if dim == d {
			code := e.EncodeParts(parts)
			if code > z && code < best {
				best, found = code, true
			}
			return
		}
		for p := loParts[dim]; p <= hiParts[dim]; p++ {
			parts[dim] = p
			rec(dim+1, parts)
		}
	}
	rec(0, parts)
	return best, found
}

func TestBigMinBruteForce2D(t *testing.T) {
	e := NewEncoder([]int64{0, 0}, []int64{31, 31}, seqOrder(2))
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		lo := []uint64{uint64(rng.Intn(28)), uint64(rng.Intn(28))}
		hi := []uint64{lo[0] + uint64(rng.Intn(4)), lo[1] + uint64(rng.Intn(4))}
		zlo := e.EncodeParts(lo)
		zhi := e.EncodeParts(hi)
		z := uint64(rng.Intn(1 << 10))
		want, wantOK := bruteBigMin(e, z, lo, hi)
		got, ok := e.BigMin(z, zlo, zhi)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("BigMin(%d) = (%d,%v), want (%d,%v) rect lo=%v hi=%v",
				z, got, ok, want, wantOK, lo, hi)
		}
	}
}

func TestBigMinBruteForce3D(t *testing.T) {
	e := NewEncoder([]int64{0, 0, 0}, []int64{7, 7, 7}, []int{2, 0, 1})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		lo := make([]uint64, 3)
		hi := make([]uint64, 3)
		for i := range lo {
			lo[i] = uint64(rng.Intn(6))
			hi[i] = lo[i] + uint64(rng.Intn(2))
		}
		zlo := e.EncodeParts(lo)
		zhi := e.EncodeParts(hi)
		z := uint64(rng.Intn(1 << 9))
		want, wantOK := bruteBigMin(e, z, lo, hi)
		got, ok := e.BigMin(z, zlo, zhi)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("BigMin(%d) = (%d,%v), want (%d,%v)", z, got, ok, want, wantOK)
		}
	}
}

func TestBigMinResultInsideRect(t *testing.T) {
	e := NewEncoder([]int64{0, 0}, []int64{1023, 1023}, seqOrder(2))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		lo := []uint64{uint64(rng.Intn(1000)), uint64(rng.Intn(1000))}
		hi := []uint64{lo[0] + uint64(rng.Intn(20)), lo[1] + uint64(rng.Intn(20))}
		z := uint64(rng.Int63n(1 << 20))
		got, ok := e.BigMin(z, e.EncodeParts(lo), e.EncodeParts(hi))
		if !ok {
			continue
		}
		if got <= z {
			t.Fatalf("BigMin %d not strictly greater than %d", got, z)
		}
		if !e.InRect(got, lo, hi) {
			t.Fatalf("BigMin %d outside rect lo=%v hi=%v", got, lo, hi)
		}
	}
}

func TestBigMinExhaustedSpace(t *testing.T) {
	e := NewEncoder([]int64{0, 0}, []int64{3, 3}, seqOrder(2))
	lo := []uint64{0, 0}
	hi := []uint64{3, 3}
	zmax := e.EncodeParts(hi)
	if _, ok := e.BigMin(zmax, e.EncodeParts(lo), zmax); ok {
		t.Fatal("no code can follow the rectangle's max")
	}
	if _, ok := e.BigMin(^uint64(0), e.EncodeParts(lo), zmax); ok {
		t.Fatal("BigMin past the last representable code must fail")
	}
}

func TestInRect(t *testing.T) {
	e := NewEncoder([]int64{0, 0}, []int64{15, 15}, seqOrder(2))
	lo := []uint64{2, 3}
	hi := []uint64{5, 9}
	in := e.EncodeParts([]uint64{3, 7})
	out := e.EncodeParts([]uint64{6, 7})
	if !e.InRect(in, lo, hi) || e.InRect(out, lo, hi) {
		t.Fatal("InRect misclassified")
	}
}

func BenchmarkEncode(b *testing.B) {
	d := 6
	mins := make([]int64, d)
	maxs := make([]int64, d)
	for i := range maxs {
		maxs[i] = 1 << 40
	}
	e := NewEncoder(mins, maxs, seqOrder(d))
	point := []int64{5, 1 << 20, 1 << 30, 42, 1 << 39, 7}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += e.Encode(point)
	}
	_ = sink
}

func BenchmarkBigMin(b *testing.B) {
	e := NewEncoder([]int64{0, 0, 0, 0}, []int64{1 << 15, 1 << 15, 1 << 15, 1 << 15}, seqOrder(4))
	lo := []uint64{100, 200, 300, 400}
	hi := []uint64{200, 300, 400, 500}
	zlo := e.EncodeParts(lo)
	zhi := e.EncodeParts(hi)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := e.BigMin(uint64(i)%zhi, zlo, zhi)
		sink += v
	}
	_ = sink
}

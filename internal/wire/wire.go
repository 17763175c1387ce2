// Package wire implements the little-endian binary encoding used to persist
// built indexes (layouts, models, and compressed columns). Writers and
// readers are sticky-error: callers chain field operations and check the
// final error once.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Typed corruption errors. Every decode failure caused by damaged input wraps
// one of these, so callers can distinguish a short file from a bit flip from
// a foreign or future format with errors.Is.
var (
	// ErrTruncated reports input that ends before a complete structure
	// (header, section, length-prefixed field) could be read.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrChecksum reports a section whose payload does not match its CRC.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrVersion reports input that is not a recognized flood snapshot or
	// carries an unsupported format version.
	ErrVersion = errors.New("wire: unsupported format or version")
)

// Writer serializes primitive fields to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// newWriter wraps w.
func newWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriterSize(w, 1<<16)} }

// Flush drains buffered output and returns the sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(buf []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(buf)
}

// U64 writes a fixed 8-byte unsigned integer.
func (w *Writer) U64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.write(buf[:])
}

// I64 writes a fixed 8-byte signed integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 8 bytes.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// U32 writes a fixed 4-byte unsigned integer.
func (w *Writer) U32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.write(buf[:])
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write([]byte{v}) }

// Bool writes one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Int(len(s))
	w.write([]byte(s))
}

// I64s writes a length-prefixed int64 slice.
func (w *Writer) I64s(vs []int64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
}

// U64s writes a length-prefixed uint64 slice.
func (w *Writer) U64s(vs []uint64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.U64(v)
	}
}

// U32s writes a length-prefixed uint32 slice.
func (w *Writer) U32s(vs []uint32) {
	w.Int(len(vs))
	for _, v := range vs {
		w.U32(v)
	}
}

// I32s writes a length-prefixed int32 slice.
func (w *Writer) I32s(vs []int32) {
	w.Int(len(vs))
	for _, v := range vs {
		w.U32(uint32(v))
	}
}

// U8s writes a length-prefixed byte slice.
func (w *Writer) U8s(vs []uint8) {
	w.Int(len(vs))
	w.write(vs)
}

// Ints writes a length-prefixed int slice.
func (w *Writer) Ints(vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

// Strs writes a length-prefixed string slice.
func (w *Writer) Strs(vs []string) {
	w.Int(len(vs))
	for _, s := range vs {
		w.Str(s)
	}
}

// maxLen bounds length prefixes against corrupt or hostile inputs.
const maxLen = 1 << 31

// Reader deserializes fields written by Writer.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReaderBytes reads fields from an in-memory buffer, such as a verified
// snapshot section payload.
func NewReaderBytes(b []byte) *Reader { return &Reader{r: bufio.NewReader(bytes.NewReader(b))} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) read(buf []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("unexpected end of input: %w", ErrTruncated)
		}
		r.err = err
	}
}

// U64 reads a fixed 8-byte unsigned integer.
func (r *Reader) U64() uint64 {
	var buf [8]byte
	r.read(buf[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// I64 reads a fixed 8-byte signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	var buf [1]byte
	r.read(buf[:])
	return buf[0]
}

// Bool reads one byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) length() int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > maxLen) {
		r.err = fmt.Errorf("wire: invalid length %d", n)
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.length()
	if r.err != nil {
		return ""
	}
	out := make([]byte, 0, allocHint(n))
	var buf [8 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), len(buf))
		r.read(buf[:k])
		if r.err != nil {
			return ""
		}
		out = append(out, buf[:k]...)
	}
	return string(out)
}

// Slice readers grow their result incrementally in bounded batches instead
// of trusting the length prefix with one up-front allocation: a corrupt or
// hostile prefix claiming 2^30 elements fails with ErrTruncated after
// reading (and allocating) only what the input actually contains. readBatch
// is the shared chunk size in elements.
const readBatch = 512

// allocHint caps the initial capacity reserved from a length prefix before
// any payload bytes have been validated.
func allocHint(n int) int {
	if n > 1<<16 {
		return 1 << 16
	}
	return n
}

// I64s reads a length-prefixed int64 slice.
func (r *Reader) I64s() []int64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int64, 0, allocHint(n))
	var buf [8 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), readBatch)
		r.read(buf[:8*k])
		if r.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out
}

// U64s reads a length-prefixed uint64 slice.
func (r *Reader) U64s() []uint64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]uint64, 0, allocHint(n))
	var buf [8 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), readBatch)
		r.read(buf[:8*k])
		if r.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	return out
}

// U32s reads a length-prefixed uint32 slice.
func (r *Reader) U32s() []uint32 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]uint32, 0, allocHint(n))
	var buf [4 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), readBatch)
		r.read(buf[:4*k])
		if r.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return out
}

// I32s reads a length-prefixed int32 slice.
func (r *Reader) I32s() []int32 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int32, 0, allocHint(n))
	var buf [4 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), readBatch)
		r.read(buf[:4*k])
		if r.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i*4:])))
		}
	}
	return out
}

// U8s reads a length-prefixed byte slice.
func (r *Reader) U8s() []uint8 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]uint8, 0, allocHint(n))
	var buf [8 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), len(buf))
		r.read(buf[:k])
		if r.err != nil {
			return nil
		}
		out = append(out, buf[:k]...)
	}
	return out
}

// Ints reads a length-prefixed int slice.
func (r *Reader) Ints() []int {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int, 0, allocHint(n))
	var buf [8 * readBatch]byte
	for len(out) < n {
		k := min(n-len(out), readBatch)
		r.read(buf[:8*k])
		if r.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, int(int64(binary.LittleEndian.Uint64(buf[i*8:]))))
		}
	}
	return out
}

// Strs reads a length-prefixed string slice.
func (r *Reader) Strs() []string {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, allocHint(n))
	for len(out) < n {
		out = append(out, r.Str())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// Expect fails the reader when the next bytes do not match tag.
func (r *Reader) Expect(tag string) {
	got := make([]byte, len(tag))
	r.read(got)
	if r.err == nil && string(got) != tag {
		r.err = fmt.Errorf("wire: expected tag %q, found %q", tag, got)
	}
}

// Tag writes a raw, unprefixed tag.
func (w *Writer) Tag(tag string) { w.write([]byte(tag)) }

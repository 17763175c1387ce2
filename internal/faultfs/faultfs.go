// Package faultfs provides fault-injecting I/O primitives for durability
// tests: writers that tear mid-stream, readers that fail early, and helpers
// that flip or cut bytes in files on disk. The property tests drive every
// prefix truncation and every single-byte corruption of snapshots and WAL
// segments through these, asserting recovery is either exact or a clean
// typed error — never a panic or silently wrong rows.
//
//api:keep a test harness: its callers are other packages' tests
package faultfs

import (
	"errors"
	"io"
	"os"
)

// ErrInjected is the failure every injected fault returns.
var ErrInjected = errors.New("faultfs: injected failure")

// Writer passes writes through to W until Limit bytes have been written,
// then fails — modeling a torn write or a disk filling up. The bytes before
// the limit ARE delivered, so the downstream sees a valid prefix.
type Writer struct {
	// W receives the surviving prefix.
	W io.Writer
	// Limit is the number of bytes delivered before the injected failure.
	Limit   int64
	written int64
}

// Write implements io.Writer with the torn-write fault.
func (w *Writer) Write(p []byte) (int, error) {
	remain := w.Limit - w.written
	if remain <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) <= remain {
		n, err := w.W.Write(p)
		w.written += int64(n)
		return n, err
	}
	n, err := w.W.Write(p[:remain])
	w.written += int64(n)
	if err != nil {
		return n, err
	}
	return n, ErrInjected
}

// Reader passes reads through from R until Limit bytes, then fails —
// modeling an unreadable sector past a valid prefix.
type Reader struct {
	// R supplies the readable prefix.
	R io.Reader
	// Limit is the number of bytes readable before the injected failure.
	Limit int64
	read  int64
}

// Read implements io.Reader with the bad-sector fault.
func (r *Reader) Read(p []byte) (int, error) {
	remain := r.Limit - r.read
	if remain <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) > remain {
		p = p[:remain]
	}
	n, err := r.R.Read(p)
	r.read += int64(n)
	return n, err
}

// Flip returns a copy of data with every bit of byte i inverted.
func Flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

// FlipBit returns a copy of data with bit b (0..7) of byte i inverted.
func FlipBit(data []byte, i int, b uint) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 1 << (b & 7)
	return out
}

// FlipByteInFile inverts every bit of the byte at offset in the file.
func FlipByteInFile(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], offset)
	return err
}

// TruncateFile cuts the file at path to size bytes.
func TruncateFile(path string, size int64) error {
	return os.Truncate(path, size)
}

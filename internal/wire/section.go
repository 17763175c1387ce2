package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot format v2: an 8-byte header followed by a fixed number of
// independently checksummed sections.
//
//	header:  "FLOOD" | version u8 | section count u16 (little-endian)
//	section: tag [4]byte | payload length u64 | payload | CRC32-C u32
//
// The CRC covers tag, length, and payload, so any single-byte corruption of
// a section — including its framing — is detected. The header carries the
// section count so a file truncated at a section boundary is detected too:
// fewer sections than declared is ErrTruncated, trailing bytes past the last
// declared section are ErrChecksum.
const (
	// snapshotMagic prefixes every versioned snapshot.
	snapshotMagic = "FLOOD"
	// HeaderSize is the fixed size of the snapshot header in bytes.
	HeaderSize = 8
	// maxSectionLen bounds a section's declared payload length; anything
	// larger is treated as corruption rather than an allocation request.
	maxSectionLen = int64(1) << 40
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteHeader writes the v2 snapshot header: magic, version, and the number
// of sections that follow.
func WriteHeader(w io.Writer, version uint8, sections int) error {
	var h [HeaderSize]byte
	copy(h[:], snapshotMagic)
	h[5] = version
	binary.LittleEndian.PutUint16(h[6:], uint16(sections))
	_, err := w.Write(h[:])
	return err
}

// ParseHeader validates an 8-byte snapshot header against the expected
// version and returns the declared section count. A wrong magic or version
// byte yields ErrVersion.
func ParseHeader(h []byte, version uint8) (sections int, err error) {
	if len(h) < HeaderSize || string(h[:len(snapshotMagic)]) != snapshotMagic {
		return 0, fmt.Errorf("not a flood snapshot: %w", ErrVersion)
	}
	if h[5] != version {
		return 0, fmt.Errorf("snapshot format version %d, supported %d: %w", h[5], version, ErrVersion)
	}
	return int(binary.LittleEndian.Uint16(h[6:])), nil
}

// SectionWriter frames checksummed sections onto an underlying stream. Each
// section's payload is staged in memory, then written as one
// tag+length+payload+CRC frame. Errors are sticky.
type SectionWriter struct {
	w   io.Writer
	buf bytes.Buffer
	err error
}

// NewSectionWriter wraps w, which must already carry a header written with
// WriteHeader declaring the number of sections that will follow.
func NewSectionWriter(w io.Writer) *SectionWriter { return &SectionWriter{w: w} }

// Err returns the first error encountered.
func (s *SectionWriter) Err() error { return s.err }

// Section stages one section: encode writes the payload through a field
// Writer, and the framed, checksummed result is appended to the stream.
func (s *SectionWriter) Section(tag string, encode func(*Writer)) {
	if s.err != nil {
		return
	}
	if len(tag) != 4 {
		s.err = fmt.Errorf("wire: section tag %q must be 4 bytes", tag)
		return
	}
	s.buf.Reset()
	fw := newWriter(&s.buf)
	encode(fw)
	if s.err = fw.Flush(); s.err != nil {
		return
	}
	payload := s.buf.Bytes()
	var frame [12]byte
	copy(frame[:4], tag)
	binary.LittleEndian.PutUint64(frame[4:], uint64(len(payload)))
	crc := crc32.Update(0, crcTable, frame[:])
	crc = crc32.Update(crc, crcTable, payload)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc)
	if _, s.err = s.w.Write(frame[:]); s.err != nil {
		return
	}
	if _, s.err = s.w.Write(payload); s.err != nil {
		return
	}
	_, s.err = s.w.Write(sum[:])
}

// SectionReader iterates the checksummed sections of a v2 snapshot stream
// positioned just past the header.
type SectionReader struct {
	r         io.Reader
	remaining int
}

// NewSectionReader wraps a stream holding count framed sections.
func NewSectionReader(r io.Reader, count int) *SectionReader {
	return &SectionReader{r: r, remaining: count}
}

// Next reads one section. It returns io.EOF after the declared count (after
// verifying the stream ends there). A CRC mismatch returns the (possibly
// damaged) tag with ErrChecksum; the stream stays positioned at the next
// section, so the caller may keep iterating. Truncation returns whatever tag
// was recovered with ErrTruncated; further reads are not possible.
func (s *SectionReader) Next() (tag string, payload []byte, err error) {
	if s.remaining == 0 {
		// The declared sections are done; anything further is corruption
		// (most likely a flipped section count).
		var b [1]byte
		if n, _ := io.ReadFull(s.r, b[:]); n != 0 {
			return "", nil, fmt.Errorf("trailing data after final section: %w", ErrChecksum)
		}
		return "", nil, io.EOF
	}
	s.remaining--
	var frame [12]byte
	if _, err := io.ReadFull(s.r, frame[:]); err != nil {
		return "", nil, fmt.Errorf("section frame: %w", ErrTruncated)
	}
	tag = string(frame[:4])
	length := binary.LittleEndian.Uint64(frame[4:])
	if length > uint64(maxSectionLen) {
		return tag, nil, fmt.Errorf("section %q declares %d bytes: %w", tag, length, ErrChecksum)
	}
	// Read the payload in bounded chunks so a corrupt length cannot force a
	// huge allocation before the stream runs dry.
	payload = make([]byte, 0, min(length, 1<<16))
	var chunk [1 << 16]byte
	for uint64(len(payload)) < length {
		k := min(length-uint64(len(payload)), uint64(len(chunk)))
		if _, err := io.ReadFull(s.r, chunk[:k]); err != nil {
			return tag, nil, fmt.Errorf("section %q payload: %w", tag, ErrTruncated)
		}
		payload = append(payload, chunk[:k]...)
	}
	var sum [4]byte
	if _, err := io.ReadFull(s.r, sum[:]); err != nil {
		return tag, nil, fmt.Errorf("section %q checksum: %w", tag, ErrTruncated)
	}
	crc := crc32.Update(0, crcTable, frame[:])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(sum[:]) {
		return tag, nil, fmt.Errorf("section %q: %w", tag, ErrChecksum)
	}
	return tag, payload, nil
}

// Checksum returns the CRC32-C of data, the polynomial shared by snapshot
// sections and WAL records.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, crcTable) }

// ChecksumUpdate extends a CRC32-C with more data.
func ChecksumUpdate(crc uint32, data []byte) uint32 { return crc32.Update(crc, crcTable, data) }

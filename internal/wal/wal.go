// Package wal implements the append-only write-ahead log that makes inserts
// durable between snapshots. A log is a sequence of generation-numbered
// segment files; each segment carries a checksummed header and a stream of
// CRC-framed records. Appends group-commit: concurrent writers batch into a
// shared fsync, so sync-per-insert throughput scales with concurrency.
// Replay walks a segment's records and stops at the first invalid frame, so
// a torn tail yields exactly the prefix of acknowledged records — never a
// partially applied or corrupted record.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flood/internal/wire"
)

// Segment file format.
//
//	header: "FLODWAL1" | generation u64 | CRC32-C u32 (over magic+generation)
//	record: length u32 | CRC32-C u32 (over length+payload) | payload
//
// All integers little-endian. The record CRC covers the length field, so a
// flipped length byte cannot redirect the frame walk to plausible garbage.
const (
	segmentMagic = "FLODWAL1"
	// headerSize is the size of a segment header in bytes.
	headerSize = 20
	frameSize  = 8
	// maxRecordLen bounds a record's declared payload length; larger values
	// are treated as corruption rather than allocation requests.
	maxRecordLen = 1 << 30
)

// SyncPolicy controls when appended records are fsynced to stable storage.
type SyncPolicy int

// The sync policies, ordered from most to least durable.
const (
	// SyncAlways fsyncs before Append returns: an acknowledged insert
	// survives kill -9 and power loss. Concurrent appends share fsyncs
	// (group commit).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer: a crash loses at most the
	// last interval's worth of acknowledged inserts.
	SyncInterval
	// SyncNone never fsyncs except on Sync and Close: the OS decides when
	// data reaches disk. Fastest; a crash may lose any unsynced suffix.
	SyncNone
)

// flushInterval is the fsync period under SyncInterval.
const flushInterval = 50 * time.Millisecond

// SegmentName returns the file name of the segment for a generation.
func SegmentName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }

// ParseSegmentName extracts the generation from a segment file name; ok is
// false for non-segment names.
func ParseSegmentName(name string) (gen uint64, ok bool) {
	var g uint64
	if n, err := fmt.Sscanf(name, "wal-%d.log", &g); n != 1 || err != nil {
		return 0, false
	}
	// Round-trip to reject names with stray prefixes or suffixes Sscanf
	// tolerates.
	if SegmentName(g) != name {
		return 0, false
	}
	return g, true
}

// Log is an open segment accepting appends. Append, Sync, and Close are safe
// for concurrent use.
type Log struct {
	path string

	mu     sync.Mutex // serializes writes to f
	f      *os.File
	offset int64 // bytes written (not necessarily synced)

	sm      sync.Mutex // guards the group-commit state below
	synced  int64      // bytes known durable
	syncing bool       // an fsync is in flight
	syncErr error      // sticky: after an fsync fails the log is poisoned
	cond    *sync.Cond // broadcast when a sync round completes

	policy  SyncPolicy
	closed  chan struct{} // closes on Close; stops the interval flusher
	flushWG sync.WaitGroup
}

// Create creates a new segment file at path with the given generation and
// sync policy, fsyncs the header and the containing directory, and returns
// the open log. The file must not already exist.
func Create(path string, gen uint64, policy SyncPolicy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	var h [headerSize]byte
	copy(h[:8], segmentMagic)
	binary.LittleEndian.PutUint64(h[8:], gen)
	binary.LittleEndian.PutUint32(h[16:], wire.Checksum(h[:16]))
	if _, err := f.Write(h[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := wire.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{
		path:   path,
		f:      f,
		offset: headerSize,
		synced: headerSize,
		policy: policy,
		closed: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.sm)
	if policy == SyncInterval {
		l.flushWG.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// AppendAsync writes one record to the OS without waiting for durability and
// returns a token for WaitDurable. It exists so callers serializing appends
// under their own lock can move the fsync wait outside it: appends stay
// cheap and ordered, while concurrent WaitDurable calls group-commit.
func (l *Log) AppendAsync(payload []byte) (int64, error) {
	if int64(len(payload)) > maxRecordLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	frame := make([]byte, frameSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[frameSize:], payload)
	crc := wire.Checksum(frame[:4])
	crc = wire.ChecksumUpdate(crc, payload)
	binary.LittleEndian.PutUint32(frame[4:], crc)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: append to closed segment %s", l.path)
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, err
	}
	l.offset += int64(len(frame))
	return l.offset, nil
}

// WaitDurable blocks until the record AppendAsync returned target for is as
// durable as the sync policy promises: under SyncAlways it fsyncs (sharing
// rounds with concurrent waiters), under the other policies it returns
// immediately.
func (l *Log) WaitDurable(target int64) error {
	if l.policy != SyncAlways {
		return nil
	}
	return l.syncTo(target)
}

// Sync forces everything appended so far onto stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.offset
	l.mu.Unlock()
	return l.syncTo(target)
}

// syncTo blocks until at least target bytes are durable, sharing fsyncs with
// concurrent callers: one leader fsyncs the file while followers whose
// target is covered by that round simply wait for its broadcast.
func (l *Log) syncTo(target int64) error {
	l.sm.Lock()
	defer l.sm.Unlock()
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.synced >= target {
			return nil
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		l.mu.Lock()
		upto := l.offset
		f := l.f
		l.mu.Unlock()
		l.sm.Unlock()
		var err error
		if f == nil {
			err = fmt.Errorf("wal: sync of closed segment %s", l.path)
		} else {
			err = f.Sync()
		}
		l.sm.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else if upto > l.synced {
			l.synced = upto
		}
		l.cond.Broadcast()
	}
}

// flushLoop fsyncs every flushInterval under SyncInterval until Close.
func (l *Log) flushLoop() {
	defer l.flushWG.Done()
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.closed:
			return
		case <-t.C:
			l.Sync() // error is sticky in syncErr; Close reports it
		}
	}
}

// Close fsyncs any unsynced suffix and closes the file. Further appends
// fail.
func (l *Log) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	l.flushWG.Wait()
	syncErr := l.Sync()
	l.mu.Lock()
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f == nil {
		return syncErr
	}
	if err := f.Close(); syncErr == nil {
		return err
	}
	return syncErr
}

// ReplayResult describes what a Replay recovered from one segment.
type ReplayResult struct {
	// Gen is the generation recorded in the segment header (0 when the
	// header itself was damaged).
	Gen uint64
	// Records is the number of valid records applied.
	Records int
	// ValidSize is the byte offset of the end of the last valid record —
	// the size to truncate the file to when the tail is damaged.
	ValidSize int64
	// Damaged reports that the walk stopped at an invalid frame (torn
	// write, bit flip, or truncation) before the end of the file.
	Damaged bool
	// Err classifies the damage when Damaged is set, wrapping
	// wire.ErrTruncated or wire.ErrChecksum.
	Err error
}

// Replay reads a segment and calls apply for each valid record in order. It
// stops at the first invalid frame and reports it in the result rather than
// as an error: a damaged tail is an expected crash artifact, and the caller
// decides whether damage is tolerable (last segment) or fatal (earlier
// segments). An error from apply aborts the walk and is returned as-is. A
// damaged or truncated header yields Damaged with ValidSize 0 and no
// records. A record is allocated only once the file is known to hold it, so
// a damaged length costs at most the file's size, never maxRecordLen.
func Replay(path string, apply func(payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, err
	}

	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		res.Damaged = true
		res.Err = fmt.Errorf("truncated segment header: %w", wire.ErrTruncated)
		return res, nil
	}
	if string(h[:8]) != segmentMagic || binary.LittleEndian.Uint32(h[16:]) != wire.Checksum(h[:16]) {
		res.Damaged = true
		res.Err = fmt.Errorf("corrupt segment header: %w", wire.ErrChecksum)
		return res, nil
	}
	res.Gen = binary.LittleEndian.Uint64(h[8:])
	res.ValidSize = headerSize

	var frame [frameSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			if err != io.EOF {
				res.Damaged = true
				res.Err = fmt.Errorf("truncated record frame: %w", wire.ErrTruncated)
			}
			return res, nil
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		if int64(length) > maxRecordLen {
			res.Damaged = true
			res.Err = fmt.Errorf("record declares %d bytes: %w", length, wire.ErrChecksum)
			return res, nil
		}
		if left := fi.Size() - res.ValidSize - frameSize; int64(length) > left {
			res.Damaged = true
			res.Err = fmt.Errorf("record declares %d bytes, %d left in the segment: %w", length, left, wire.ErrTruncated)
			return res, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			res.Damaged = true
			res.Err = fmt.Errorf("truncated record payload: %w", wire.ErrTruncated)
			return res, nil
		}
		crc := wire.Checksum(frame[:4])
		crc = wire.ChecksumUpdate(crc, payload)
		if crc != binary.LittleEndian.Uint32(frame[4:]) {
			res.Damaged = true
			res.Err = fmt.Errorf("record checksum mismatch: %w", wire.ErrChecksum)
			return res, nil
		}
		if err := apply(payload); err != nil {
			return res, err
		}
		res.Records++
		res.ValidSize += frameSize + int64(length)
	}
}

// TruncateTail cuts a segment file to size (the ValidSize of a damaged
// Replay) and fsyncs it, discarding the invalid tail so a future replay
// ends cleanly.
func TruncateTail(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"flood/internal/faultfs"
	"flood/internal/wire"
)

func testRecords(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(rune('a'+i%26))))
	}
	return out
}

func writeSegment(t *testing.T, dir string, gen uint64, recs [][]byte, policy SyncPolicy) string {
	t.Helper()
	path := filepath.Join(dir, SegmentName(gen))
	l, err := Create(path, gen, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func replayAll(t *testing.T, path string) (ReplayResult, [][]byte) {
	t.Helper()
	var got [][]byte
	res, err := Replay(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, got
}

func TestAppendReplayRoundtrip(t *testing.T) {
	recs := testRecords(100)
	path := writeSegment(t, t.TempDir(), 7, recs, SyncNone)
	res, got := replayAll(t, path)
	if res.Damaged {
		t.Fatalf("clean segment reported damaged: %v", res.Err)
	}
	if res.Gen != 7 {
		t.Fatalf("gen = %d, want 7", res.Gen)
	}
	if res.Records != len(recs) {
		t.Fatalf("replayed %d records, want %d", res.Records, len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d changed across replay", i)
		}
	}
	fi, _ := os.Stat(path)
	if res.ValidSize != fi.Size() {
		t.Fatalf("ValidSize %d != file size %d", res.ValidSize, fi.Size())
	}
}

func TestSegmentNames(t *testing.T) {
	for _, g := range []uint64{0, 1, 42, 999999, 12345678} {
		got, ok := ParseSegmentName(SegmentName(g))
		if !ok || got != g {
			t.Fatalf("ParseSegmentName(SegmentName(%d)) = %d, %v", g, got, ok)
		}
	}
	for _, bad := range []string{"wal-.log", "wal-12.log.tmp", "snapshot.flood", "xwal-000001.log", "wal--00001.log"} {
		if _, ok := ParseSegmentName(bad); ok {
			t.Fatalf("ParseSegmentName accepted %q", bad)
		}
	}
}

// TestReplayEveryTruncation cuts the segment at every byte length: replay
// must always recover an exact prefix of the appended records, flag damage
// when (and only when) the cut falls mid-record, and never error or panic.
func TestReplayEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(20)
	path := writeSegment(t, dir, 1, recs, SyncNone)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.log")
	for size := 0; size <= len(full); size++ {
		if err := os.WriteFile(cut, full[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		res, got := replayAll(t, cut)
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut %d: record %d is not a prefix of the appended records", size, i)
			}
		}
		if size < len(full) && !res.Damaged && res.ValidSize != int64(size) {
			t.Fatalf("cut %d: clean replay but ValidSize %d", size, res.ValidSize)
		}
	}
}

// TestReplayEveryFlip inverts every byte of the segment in turn: replay must
// recover a prefix of the appended records (detection, not correction) and
// report typed damage for the rest — never a record that was not appended.
func TestReplayEveryFlip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(12)
	path := writeSegment(t, dir, 1, recs, SyncNone)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := filepath.Join(dir, "flip.log")
	for off := 0; off < len(full); off++ {
		if err := os.WriteFile(flip, faultfs.Flip(full, off), 0o644); err != nil {
			t.Fatal(err)
		}
		res, got := replayAll(t, flip)
		if !res.Damaged {
			t.Fatalf("flip at %d undetected", off)
		}
		if res.Err == nil {
			t.Fatalf("flip at %d: Damaged without Err", off)
		}
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("flip at %d: replay yielded a non-prefix record %d", off, i)
			}
		}
	}
}

// TestReplayLengthBoundedByFile: a segment whose last frame declares 1<<30
// bytes — one flipped length byte in a small file — replays its valid prefix
// and reports truncation without allocating the declared length.
func TestReplayLengthBoundedByFile(t *testing.T) {
	recs := testRecords(10)
	path := writeSegment(t, t.TempDir(), 1, recs, SyncNone)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(data) - frameSize - len(recs[len(recs)-1])
	binary.LittleEndian.PutUint32(data[last:], 1<<30)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, got := replayAll(t, path)
	runtime.ReadMemStats(&after)
	if !res.Damaged || !errors.Is(res.Err, wire.ErrTruncated) || len(got) != len(recs)-1 || res.ValidSize != int64(last) {
		t.Fatalf("replay = %+v with %d records; want ErrTruncated after %d records, valid size %d", res, len(got), len(recs)-1, last)
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 4<<20 {
		t.Errorf("replaying the damaged segment allocated %d bytes, want at most 4 MiB", a)
	}
}

// TestTruncateTailRecovers damages the tail, truncates at ValidSize, and
// verifies the shortened segment replays cleanly with the surviving prefix.
func TestTruncateTailRecovers(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(10)
	path := writeSegment(t, dir, 3, recs, SyncNone)
	fi, _ := os.Stat(path)
	if err := faultfs.TruncateFile(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	res, _ := replayAll(t, path)
	if !res.Damaged || res.Records != len(recs)-1 {
		t.Fatalf("damaged tail: records %d, damaged %v", res.Records, res.Damaged)
	}
	if err := TruncateTail(path, res.ValidSize); err != nil {
		t.Fatal(err)
	}
	res2, got := replayAll(t, path)
	if res2.Damaged || res2.Records != len(recs)-1 {
		t.Fatalf("after truncation: records %d, damaged %v", res2.Records, res2.Damaged)
	}
	_ = got
}

// TestWALGroupCommit hammers one SyncAlways log from many goroutines; every
// acknowledged append must replay, and the group-commit path must be
// race-free (runs in the CI race matrix).
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(1))
	l, err := Create(path, 1, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, got := replayAll(t, path)
	if res.Damaged || res.Records != workers*per {
		t.Fatalf("replayed %d records (damaged=%v), want %d", res.Records, res.Damaged, workers*per)
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		seen[string(r)] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct records, want %d", len(seen), workers*per)
	}
}

// TestWALIntervalPolicySyncsOnClose verifies SyncInterval acks immediately
// but Close still makes everything durable.
func TestWALIntervalPolicySyncsOnClose(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(30)
	path := writeSegment(t, dir, 1, recs, SyncInterval)
	res, _ := replayAll(t, path)
	if res.Damaged || res.Records != len(recs) {
		t.Fatalf("replayed %d (damaged=%v), want %d", res.Records, res.Damaged, len(recs))
	}
}

// TestTornHeaderIsDamage writes a segment through a torn writer that fails
// inside the header: replay must report damage with zero records.
func TestTornHeaderIsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(1))
	recs := testRecords(5)
	full := writeSegment(t, dir, 2, recs, SyncNone)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	var torn bytes.Buffer
	w := &faultfs.Writer{W: &torn, Limit: headerSize - 5}
	if _, err := w.Write(data); err != faultfs.ErrInjected {
		t.Fatalf("torn writer returned %v", err)
	}
	if err := os.WriteFile(path, torn.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, got := replayAll(t, path)
	if !res.Damaged || len(got) != 0 || res.ValidSize != 0 {
		t.Fatalf("torn header: %+v with %d records", res, len(got))
	}
}

// BenchmarkWALAppend measures the append hot path without fsync (SyncNone):
// frame construction, CRC, and the buffered write. The fsync cost is a
// policy decision, not a code path to optimize here.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Create(filepath.Join(dir, SegmentName(1)), 1, SyncNone)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 64)
	b.SetBytes(int64(len(payload) + 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

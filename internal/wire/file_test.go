package wire

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestSyncDirIgnoresOnlyUnsupported pins the one directory-fsync policy the
// snapshot, the WAL and the shard manifest share: "not supported here"
// (EINVAL, ENOTSUP — bare, or wrapped in the *PathError os returns) is
// ignored; anything that says the data may not have reached the disk is not.
func TestSyncDirIgnoresOnlyUnsupported(t *testing.T) {
	wrap := func(err error) error { return &os.PathError{Op: "sync", Path: "dir", Err: err} }
	for _, c := range []struct {
		err     error
		ignored bool
	}{
		{syscall.EINVAL, true},
		{syscall.ENOTSUP, true},
		{wrap(syscall.EINVAL), true},
		{wrap(syscall.ENOTSUP), true},
		{syscall.EIO, false},
		{wrap(syscall.EIO), false},
		{wrap(syscall.ENOSPC), false},
		{wrap(syscall.EBADF), false},
		{errors.New("sync failed"), false},
	} {
		if got := ignorableSyncError(c.err); got != c.ignored {
			t.Errorf("ignorableSyncError(%v) = %v, want %v", c.err, got, c.ignored)
		}
	}
	if err := SyncDir(t.TempDir()); err != nil {
		t.Errorf("SyncDir of a fresh directory: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("SyncDir of a missing directory = %v, want ErrNotExist", err)
	}
}

// TestWriteFileAtomic: a successful write replaces the file whole; a failed
// one leaves the previous contents and no temporary file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, s := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, put(s)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != s {
			t.Fatalf("after writing %q the file holds %q", s, got)
		}
	}
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(w io.Writer) error { put("torn")(w); return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("a failed write left %q, want the previous contents", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want 1", len(entries))
	}
}

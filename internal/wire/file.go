package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFileAtomic writes a file through the write-temp, fsync, rename,
// fsync-directory sequence, so path holds either its previous contents or
// the complete new contents — never a torn intermediate. It is the one
// building block under every file a store replaces in place: snapshots
// (SaveFile, checkpoints) and the shard manifest.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so preceding renames and creates in it are
// durable. Filesystems that do not support fsync on directories report
// EINVAL or ENOTSUP; those are ignored, and every other error — EIO above
// all — is returned.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !ignorableSyncError(err) {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// ignorableSyncError reports fsync errors that mean "not supported here"
// rather than "your data did not reach the disk".
func ignorableSyncError(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

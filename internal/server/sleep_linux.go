package server

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread for d plus the kernel's timer slack
// (50 µs by default), below the netpoll floor a Go timer keeps.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// The only failure is EINTR, which ends the sleep early; the gather loop
	// rechecks its deadline.
	_ = syscall.Nanosleep(&ts, nil)
}

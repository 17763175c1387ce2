//go:build !linux

package server

import "time"

// preciseSleep falls back to time.Sleep where no precise sleep is wired up,
// so a sub-millisecond window still lasts about the netpoll floor there.
func preciseSleep(d time.Duration) { time.Sleep(d) }

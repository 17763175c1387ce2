//go:build !linux

package core

// osYield is a no-op where no thread yield is wired up; runtime.Gosched
// still yields the processor.
func osYield() {}

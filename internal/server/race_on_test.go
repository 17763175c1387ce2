//go:build race

package server

// raceEnabled reports that the race detector is active; its instrumentation
// slows every channel operation, so wall-clock bounds must be skipped.
const raceEnabled = true

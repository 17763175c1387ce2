//go:build race

package colstore

// raceEnabled reports that the race detector is active; its instrumentation
// adds heap allocations, so allocation assertions must be skipped.
const raceEnabled = true

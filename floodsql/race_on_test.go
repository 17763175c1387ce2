//go:build race

package floodsql

// raceEnabled reports that the race detector is active; its instrumentation
// adds heap allocations, so allocation-count assertions must be skipped.
const raceEnabled = true

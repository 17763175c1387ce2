//go:build race

package baseline_test

// raceEnabled reports that the race detector is active; its instrumentation
// allocates inside Execute, so allocation-count assertions must be skipped.
const raceEnabled = true

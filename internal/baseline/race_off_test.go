//go:build !race

package baseline_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

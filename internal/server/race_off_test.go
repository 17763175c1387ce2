//go:build !race

package server

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

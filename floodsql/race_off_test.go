//go:build !race

package floodsql

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

// Package twin declares yield twice, once on each side of a build
// constraint: only the files go/build selects for the host are type-checked.
package twin

// Spin yields once; the root package calls it.
func Spin() { yield() }

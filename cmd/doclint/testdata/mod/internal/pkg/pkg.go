// Package pkg is a package below the module root: the caller rule applies
// to it as to the root.
package pkg

// Used is named from the root package.
func Used() {}

// Unused is named only by this package's tests.
func Unused() {}

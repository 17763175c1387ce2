// Package policy declares a type the root package re-exports by alias.
package policy

// Policy picks how Used works.
type Policy int

// Eager is a Policy.
const Eager Policy = 1

// Package fixture is the module-root package the doclint test lints: one
// declaration for each case of the doc rule and the caller rule.
package fixture

import "fixture/internal/policy"

// Used is named from package user.
func Used(o Options) Result { return Result{} }

func Undocumented() {}

// Options is reachable only through Used's signature.
type Options struct {
	// Mode is reachable through an exported field of Options.
	Mode   Mode
	Policy Policy
	hidden Hidden
}

// Mode is reachable through Options.
type Mode int

// ModeFast is a constant of a reachable type.
const ModeFast Mode = 1

// ModeSlow is a constant of a reachable type, typed by conversion.
const ModeSlow = Mode(2)

// Policy is reachable through Options, as the type it aliases.
type Policy = policy.Policy

// Eager is a constant of a reachable type declared in another package.
const Eager = policy.Eager

// Limit is an untyped constant nothing outside names.
const Limit = 8

// Hidden appears only in an unexported field.
type Hidden struct{}

// Result is reachable through Used's signature.
type Result struct{}

// Detail is reachable through a method of Result.
func (Result) Detail() Detail { return Detail{} }

// Detail is reachable through Result.Detail.
type Detail struct{}

// Callerless is named only by the package itself and by tests.
func Callerless() {}

// Kept is deliberate API with no caller in the module.
//
//api:keep called from outside the module
func Kept() {}

// KeptNoReason has a keep line that says nothing.
//
//api:keep
func KeptNoReason() {}

// ErrKept is kept by its declaration group's line.
//
//api:keep errors.Is target
var (
	// ErrKept is matched with errors.Is.
	ErrKept = errorString("kept")
)

type errorString string

func (e errorString) Error() string { return string(e) }

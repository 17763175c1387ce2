package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLintFixtureModule lints testdata/mod, a module whose root package
// declares one case of each rule, and its package user, the outside caller,
// whose export Run passes because the command cmd/tool calls it. Every other
// export of the root package passes: Used and
// Undocumented are named from user, Options and Result show in Used's
// signature, Mode and the alias Policy in Options' exported fields, Detail in
// a method of Result, ModeFast and ModeSlow are constants of Mode and Eager
// one of Policy, and Kept and ErrKept carry //api:keep lines with a reason.
// The method Result.Detail passes because user selects it, and the
// unexported errorString's Error because it implements error.
func TestLintFixtureModule(t *testing.T) {
	got := lintFixture(t, ".", "user")
	want := []string{
		"api.go:10: exported function Undocumented is undocumented",
		"api.go:36: exported constant Limit has no caller outside package fixture" + callerless,
		"api.go:39: exported type Hidden has no caller outside package fixture" + callerless,
		"api.go:51: exported function Callerless has no caller outside package fixture" + callerless,
		"api.go:61: exported function KeptNoReason has an //api:keep line without a reason",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestLintFixtureBelowRoot lints the fixture's packages below its root. The
// caller rule covers them as it covers the root: pkg's Unused, named only by
// a test, is reported and its Used, named by the root package, is not. twin
// declares yield in two files under opposite //go:build lines, and type-checks
// because only the host's file is read. harness's package comment carries an
// //api:keep line with a reason, which keeps its callerless Check; noreason's
// carries one without, which is the finding.
//
// methods holds the method cases. Reset, selected only by a test, and through
// an interface only a test declares, is reported, as is KeptNoReason, whose
// keep line gives no reason. These pass: Add, selected only from its own
// package; Frame's Describe, selected from the root package through Framed,
// which embeds Frame; Framed's Name, reached only through the module's
// interface Sizer; Frame's Area, reached only through Framed, which
// implements Sizer with it; Label's String, which satisfies only
// fmt.Stringer; and Kept, whose keep line has a reason.
func TestLintFixtureBelowRoot(t *testing.T) {
	got := lintFixture(t, "internal/pkg", "internal/twin", "internal/harness", "internal/noreason", "internal/methods")
	want := []string{
		"methods.go:55: exported method Counter.Reset" + methodless,
		"methods.go:65: exported method Counter.KeptNoReason has an //api:keep line without a reason",
		"noreason.go:4: package noreason has an //api:keep line without a reason",
		"pkg.go:9: exported function Unused has no caller outside package pkg" + callerless,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

const (
	callerless = ": name it from another package or give it an //api:keep <reason> line"
	methodless = " has no caller: select it from a non-test file, implement an interface with it or give it an //api:keep <reason> line"
)

// lintFixture lints dirs of the fixture module from its root, as make docs
// lints this module, and returns the findings as base-name:line: lines.
func lintFixture(t *testing.T, dirs ...string) []string {
	t.Chdir(filepath.Join("testdata", "mod"))
	fs, err := lint(dirs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.pos.Filename), f.pos.Line, f.msg))
	}
	sort.Strings(got)
	return got
}

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
// whose callerless export Run passes: the caller rule applies at the module
// root only. Every other export of the root package passes: Used and
// Undocumented are named from user, Options and Result show in Used's
// signature, Mode and the alias Policy in Options' exported fields, Detail in
// a method of Result, ModeFast and ModeSlow are constants of Mode and Eager
// one of Policy, and Kept and ErrKept carry //api:keep lines with a reason.
// The fixture is linted from its own root, as make docs lints this module:
// the type check resolves the module's imports in the current directory.
func TestLintFixtureModule(t *testing.T) {
	t.Chdir(filepath.Join("testdata", "mod"))
	var got []string
	for _, dir := range []string{".", "user"} {
		fs, err := lintDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.pos.Filename), f.pos.Line, f.msg))
		}
	}
	sort.Strings(got)
	callerless := ": name it from another package or give it an //api:keep <reason> line"
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

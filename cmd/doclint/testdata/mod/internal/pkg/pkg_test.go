package pkg_test

import (
	"testing"

	"fixture/internal/pkg"
)

// A test file's reference is not a caller.
func TestUnused(t *testing.T) { pkg.Unused() }

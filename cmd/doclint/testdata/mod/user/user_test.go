package user

import (
	"testing"

	"fixture"
)

// A test file's reference is not a caller.
func TestCallerless(t *testing.T) { fixture.Callerless() }

package methods

import "testing"

// resetter is an interface only a test declares: it reaches no method.
type resetter interface{ Reset() }

// A test file's selection is not a caller.
func TestReset(t *testing.T) {
	var r resetter = new(Counter)
	r.Reset()
	new(Counter).Reset()
}

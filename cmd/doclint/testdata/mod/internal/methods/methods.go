// Package methods declares one case of each clause of the caller rule for
// methods.
package methods

import "fmt"

// Sizer is the module interface through which Measure reaches Area and
// Name.
type Sizer interface {
	Area() int
	Name() string
}

// Measure prints and sums the areas of shapes, counting them; the root
// package calls it.
func Measure(shapes ...Sizer) int {
	var c Counter
	for _, s := range shapes {
		fmt.Println(s.Name())
		c.Add(s.Area())
	}
	return c.n
}

// Frame declares the Area and Describe that Framed promotes; Frame alone
// is no Sizer.
type Frame struct{}

// Area is reached only through Framed, which embeds Frame and so implements
// Sizer.
func (Frame) Area() int { return 2 }

// Describe is selected only through Framed.
func (Frame) Describe() string { return "frame" }

// Framed implements Sizer with an Area promoted from Frame.
type Framed struct{ Frame }

// Name, Framed's own, is reached only through Sizer.
func (Framed) Name() string { return "framed" }

// Label satisfies fmt.Stringer and no interface of the module.
type Label string

// String is reached only through fmt.Stringer.
func (l Label) String() string { return string(l) }

// Counter sums.
type Counter struct{ n int }

// Add is selected only from its own package.
func (c *Counter) Add(k int) { c.n += k }

// Reset is selected only by a test.
func (c *Counter) Reset() { c.n = 0 }

// Kept is deliberate API with no caller in the module.
//
//api:keep called from outside the module
func (c *Counter) Kept() int { return c.n }

// KeptNoReason has a keep line that says nothing.
//
//api:keep
func (c *Counter) KeptNoReason() {}

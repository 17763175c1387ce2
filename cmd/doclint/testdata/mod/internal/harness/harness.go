// Package harness is a test harness: only tests call it.
//
//api:keep a test harness; its callers are other packages' tests
package harness

// Check is named only by tests.
func Check() {}

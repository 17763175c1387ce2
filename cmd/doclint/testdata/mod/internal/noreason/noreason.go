// Package noreason keeps its exports without saying why.
//
//api:keep
package noreason

// Check is named by nothing.
func Check() {}

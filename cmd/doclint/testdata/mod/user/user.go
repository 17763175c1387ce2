// Package user calls the module-root package from outside it.
package user

import f "fixture"

// Run names two exports of the root package under an import alias, and
// selects a method of one of their types.
func Run() f.Result {
	f.Undocumented()
	r := f.Used(f.Options{})
	r.Detail()
	return r
}

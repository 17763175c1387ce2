// Package user calls the module-root package from outside it.
package user

import f "fixture"

// Run names two exports of the root package under an import alias.
func Run() f.Result {
	f.Undocumented()
	return f.Used(f.Options{})
}

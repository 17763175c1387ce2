//go:build !linux

package twin

func yield() {}

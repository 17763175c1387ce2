//go:build !floodscalar && !purego

package colstore

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2ProbeAgreesWithKernel checks the CPUID probe against the flags the
// operating system reports for the same CPU, where it reports them.
func TestAVX2ProbeAgreesWithKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare with")
	}
	_, flags, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	flags, _, _ = strings.Cut(flags, "\n")
	want := strings.Contains(flags+" ", " avx2 ")
	if useAVX2 != want {
		t.Fatalf("hasAVX2() = %v, /proc/cpuinfo says %v", useAVX2, want)
	}
	if want && KernelName() != "avx2" {
		t.Fatalf("KernelName() = %q on a CPU with AVX2", KernelName())
	}
}

package main

import (
	"strings"
	"testing"
)

func TestParseRecordsEachBenchmarksPackageAndProcs(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: flood/internal/core
cpu: Some CPU @ 2.10GHz
BenchmarkBuild1M-2         	       2	 512345678 ns/op	         0.2750 helper_frac	 1024 B/op	      12 allocs/op
PASS
ok  	flood/internal/core	3.1s
pkg: flood/internal/wal
BenchmarkWALAppend/batch-64-2         	    1000	      1234.5 ns/op
BenchmarkWALAppend/sync         	    1000	      99 ns/op
`
	var rep Report
	if err := parse(strings.NewReader(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Some CPU @ 2.10GHz" {
		t.Fatalf("header = %+v", rep)
	}
	want := []Benchmark{
		{Name: "BenchmarkBuild1M", Pkg: "flood/internal/core", GOMAXPROCS: 2, Iterations: 2, NsPerOp: 512345678},
		{Name: "BenchmarkWALAppend/batch-64", Pkg: "flood/internal/wal", GOMAXPROCS: 2, Iterations: 1000, NsPerOp: 1234.5},
		// go test prints no suffix under GOMAXPROCS=1.
		{Name: "BenchmarkWALAppend/sync", Pkg: "flood/internal/wal", GOMAXPROCS: 1, Iterations: 1000, NsPerOp: 99},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, w := range want {
		g := rep.Benchmarks[i]
		if g.Name != w.Name || g.Pkg != w.Pkg || g.GOMAXPROCS != w.GOMAXPROCS || g.Iterations != w.Iterations || g.NsPerOp != w.NsPerOp {
			t.Errorf("benchmark %d = %+v, want %+v", i, g, w)
		}
	}
	if b := rep.Benchmarks[0]; b.BytesPerOp == nil || *b.BytesPerOp != 1024 || b.AllocsPerOp == nil || *b.AllocsPerOp != 12 {
		t.Errorf("memory columns = %+v", b)
	}
	if b := rep.Benchmarks[0]; len(b.Metrics) != 1 || b.Metrics["helper_frac"] != 0.275 {
		t.Errorf("reported metrics = %v, want helper_frac 0.275", b.Metrics)
	}
	if b := rep.Benchmarks[1]; b.Metrics != nil {
		t.Errorf("benchmark without extra columns has metrics %v", b.Metrics)
	}
}

func TestGitSHANamesTheCheckout(t *testing.T) {
	sha := gitSHA()
	if sha == "" {
		t.Skip("no git, or not a checkout")
	}
	hex := strings.TrimSuffix(sha, "-dirty")
	if len(hex) != 40 || strings.Trim(hex, "0123456789abcdef") != "" {
		t.Fatalf("gitSHA() = %q, want a 40-digit commit with an optional -dirty", sha)
	}
}

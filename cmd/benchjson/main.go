// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark runs can be archived (BENCH_scan.json)
// and diffed across commits by CI and future PRs.
//
// Usage:
//
//	go test ./internal/core -bench X -benchmem -run '^$' | go run ./cmd/benchjson > BENCH_scan.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"flood/internal/colstore"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name string `json:"name"`
	// Pkg is the package of the `pkg:` header the line followed: one
	// document holds the runs of several packages.
	Pkg string `json:"pkg,omitempty"`
	// GOMAXPROCS is the -N suffix `go test` appends to the name (1 when
	// it appends none).
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Metrics are the columns a benchmark adds with b.ReportMetric, by unit
	// (e.g. helper_frac).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU and GoVersion describe the host and toolchain benchjson itself
	// runs on — the benchmarks' own when it reads their output as they
	// finish, as `make bench` has it do.
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	// GitSHA is the commit checked out in the directory benchjson runs in,
	// with "-dirty" appended when tracked files differ from it; absent
	// outside a checkout.
	GitSHA string `json:"git_sha,omitempty"`
	// ScanKernel is the packed compare the scan stage selects on this host
	// in a default build (colstore.KernelName): the one the CompareBlock and
	// every end-to-end row were measured on.
	ScanKernel string      `json:"scan_kernel"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	rep := Report{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GitSHA: gitSHA(), ScanKernel: colstore.KernelName()}
	if err := parse(os.Stdin, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gitSHA asks git for the working directory's commit; it returns "" when
// there is no git or no checkout, which leaves the field out.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// parse reads `go test -bench` output into rep: the host header lines once,
// and each result line under the package whose `pkg:` header it followed.
func parse(r io.Reader, rep *Report) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return sc.Err()
}

// parseLine parses e.g.
//
//	BenchmarkResidualFilterScan-8   25027   49475 ns/op   0.25 helper_frac   0 B/op   0 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Benchmark{}, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p // the -GOMAXPROCS suffix
		}
	}
	b := Benchmark{Name: name, GOMAXPROCS: procs, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		f, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch v := int64(f); fields[i+1] {
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = f
		}
	}
	return b, true
}

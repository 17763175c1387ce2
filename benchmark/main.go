// Command benchmark is the repository's one benchmark: six named workloads,
// each reporting the end-to-end metrics of BENCHMARK.json on an untraced run
// and the per-layer metrics on a traced one, with every answer checked
// against a brute-force oracle. README.md says why each workload and metric
// exists.
//
//	go run ./benchmark -workload olap_flat -seed 1
//	go run ./benchmark -workload all -seed 1 -out a.json
//	go run ./benchmark -workload serve_read -trace 1
//	go run ./benchmark -check a.json b.json
//
// The driver runs it through run.sh, which keeps the build inside the
// checkout; the last line of standard output is then the result object the
// driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	flood "flood"
)

// result is one run of one workload.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Env       environment    `json:"env"`
	Config    map[string]any `json:"config"`
	Layouts   []string       `json:"layouts"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Correct   bool           `json:"correct"`
	// Problems lists wrong answers, lost writes and broken invariants, the
	// first few of each.
	Problems []string `json:"problems,omitempty"`
	// Metrics holds the measured values; Counts the ones that must repeat
	// exactly for the same commit and seed; Samples how many operations
	// stand behind the percentiles.
	Metrics map[string]float64 `json:"metrics"`
	Counts  map[string]float64 `json:"counts"`
	Samples map[string]int     `json:"samples"`
	// Detail carries absolute values behind the per-layer shares and
	// ratios, for reading; nothing compares them.
	Detail map[string]float64 `json:"detail,omitempty"`
}

// run is what a workload function works with.
type run struct {
	*result
	seed    int64
	measure time.Duration
	trace   bool
	sc      scale
	model   *flood.CostModel
	outDir  string // scratch and trace files; under benchmark/out
	tr      *tracer
}

func (r *run) warmup() time.Duration { return max(r.measure/8, 200*time.Millisecond) }

func (r *run) set(name string, v float64)    { r.Metrics[name] = v }
func (r *run) count(name string, v float64)  { r.Counts[name] = v; r.Metrics[name] = v }
func (r *run) detail(name string, v float64) { r.Detail[name] = v }

func (r *run) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// invariant records a broken run-level condition; it makes the run incorrect
// without counting as a failed operation.
func (r *run) invariant(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.problem(format, args...)
	}
}

func (r *run) layout(name string, l flood.Layout) {
	r.Layouts = append(r.Layouts, name+": "+l.String())
}

// timeSetups runs the workload's constructors n times (once on a traced run,
// which does not report setup_s), records the median as setup_s, and leaves
// the last instance in place. build returns the time spent inside the
// system's constructors; discard releases an instance that is not kept.
func (r *run) timeSetups(n int, build func() (time.Duration, error), discard func()) error {
	if r.trace {
		n = 1
	}
	var secs, wallSecs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			discard()
			runtime.GC()
		}
		t0 := now()
		d, err := build()
		t1 := now()
		if err != nil {
			return err
		}
		secs = append(secs, d.Seconds())
		// The same constructors in wall time, for reading: the whole call
		// ran at the mean rate t0 to t1 saw.
		wallSecs = append(wallSecs, d.Seconds()*t1.wall.Sub(t0.wall).Seconds()/t1.Sub(t0).Seconds())
	}
	r.detail("setup_wall_s", median(wallSecs))
	r.set("setup_s", median(secs))
	r.Samples["setup_s"] = n
	return nil
}

// latencyMetrics sets what a measured phase says about latency: queries is
// the workload's read class, all every operation of the phase, writes too.
// The median and the trimmed mean, each a median over the windows, are
// end-to-end metrics; the p99, the plain mean and the throughput follow
// whatever CPU the host grants and are reported with the per-layer metrics,
// unbounded.
func (r *run) latencyMetrics(queries, all *latencies, elapsed time.Duration) {
	q, a := queries.summary(), all.summary()
	r.set("query_p50_us", q.p50)
	if q.wall50 > 0 {
		r.detail("query_p50_wall_us", q.wall50)
	}
	r.set("op_mean95_us", a.mean95)
	r.set("query_p99_us", q.p99)
	r.set("op_mean_us", a.mean)
	r.set("queries_per_s", float64(a.n)/elapsed.Seconds())
	r.Samples["query"] = q.n
	r.Samples["op"] = a.n
}

// harness is what every run of one invocation shares.
type harness struct {
	sc     scale
	model  *flood.CostModel
	env    environment
	outDir string
}

func (h harness) execute(def workloadDef, seed int64, seconds float64, trace bool) *result {
	res := &result{
		Workload: def.Name, Seed: seed, Seconds: seconds, Traced: trace, Env: h.env, Correct: true,
		Config:  map[string]any{"scale": fmt.Sprintf("%+v", h.sc), "build_options": fmt.Sprintf("frozen cost model, GDSteps=%d, QuerySampleSize=%d, Seed=%d", h.sc.gdSteps, h.sc.querySample, buildSeed), "drift_factor": 1e12},
		Metrics: map[string]float64{}, Counts: map[string]float64{}, Samples: map[string]int{}, Detail: map[string]float64{},
	}
	res.Config["reference_clock"] = fmt.Sprintf("in-process times are wall time x %d ns / what %d passes of the harness's fixed kernel took lately (hostclock.go); HTTP round trips are wall time", spinReferenceNS, spinReps)
	r := &run{result: res, seed: seed, measure: time.Duration(seconds * float64(time.Second)), trace: trace, sc: h.sc, model: h.model, outDir: h.outDir}
	if trace {
		r.tr = newTracer()
	}
	clock.resetRates()
	if err := def.run(r); err != nil {
		res.Correct = false
		r.problem("run failed: %v", err)
	}
	rate, lo, hi := clock.rateSummary()
	r.set("host.clock_rate", rate)
	r.detail("host.clock_rate_min", lo)
	r.detail("host.clock_rate_max", hi)
	if r.tr != nil {
		r.set("trace.spans", float64(len(r.tr.spans)))
		if path, err := r.tr.write(h.outDir, def.Name, seed); err != nil {
			r.problem("writing trace: %v", err)
		} else {
			res.Config["trace_file"] = path
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Attempted = max(res.Attempted, 1)
	return res
}

// emitted returns the metrics this run reports under the contract: the
// end-to-end list untraced, the per-layer list traced. A per-layer metric a
// workload does not set is 0: that layer is not in the workload.
func emitted(res *result) ([]metricDef, error) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			if !res.Traced {
				return nil, fmt.Errorf("%s did not measure %s", res.Workload, d.Name)
			}
			res.Metrics[d.Name] = 0
		}
	}
	return defs, nil
}

// printHuman prints every metric as "name unit value".
func printHuman(res *result) {
	fmt.Printf("# %s seed=%d seconds=%g traced=%v correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Correct, res.Attempted, res.Failed)
	for _, l := range res.Layouts {
		fmt.Printf("# layout %s\n", l)
	}
	for _, p := range res.Problems {
		fmt.Printf("# problem: %s\n", p)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %v\n", n, units[n], res.Metrics[n])
	}
	names = names[:0]
	for n := range res.Detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# detail %s %v\n", n, res.Detail[n])
	}
}

// contractLine is the object the driver reads from the last line.
func contractLine(res *result, defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{res.Metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line)
}

// appendResults adds runs to a result-set file, creating it if needed, so
// repeated invocations with the same -out build the sets -check compares.
func appendResults(path string, runs []*result) error {
	var set []*result
	if body, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(body, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	body, err := json.MarshalIndent(append(set, runs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the operation sequence")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out      = flag.String("out", "", "append the full results to this JSON result-set file")
		quick    = flag.Bool("quick", false, "small tables, for a smoke run")
		check    = flag.Bool("check", false, "compare two result sets: -check A.json B.json")
		capture  = flag.Bool("capture-calibration", false, "regenerate benchmark/calibration.json from live timings")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the harness's tables define it")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	switch {
	case *contract:
		fmt.Println(contractFile())
		return
	case *capture:
		if err := captureCalibration("benchmark"); err != nil {
			fail(err)
		}
		return
	case *check:
		if flag.NArg() != 2 {
			fail(errors.New("-check needs two result-set files"))
		}
		ok, err := checkSets("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *workload == "all" || *workload == d.Name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fail(fmt.Errorf("unknown -workload %q", *workload))
	}
	if *seconds <= 0 {
		fail(errors.New("-seconds must be positive"))
	}
	model, err := frozenModel()
	if err != nil {
		fail(err)
	}
	h := harness{sc: fullScale, model: model, env: captureEnvironment(), outDir: filepath.Join("benchmark", "out")}
	if *quick {
		h.sc = quickScale
	}
	var results []*result
	for _, d := range defs {
		results = append(results, h.execute(d, *seed, *seconds, *trace == 1))
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fail(err)
		}
	}
	// The last line is the last workload's result object: with one workload,
	// what the driver reads. An incorrect run still prints it; the driver
	// takes correct and failed from there.
	last := ""
	for _, res := range results {
		emit, err := emitted(res)
		if err != nil {
			fail(err)
		}
		printHuman(res)
		last = contractLine(res, emit)
	}
	fmt.Println(last)
}

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds.
const runSeconds = 12

// contractFile renders BENCHMARK.json from the tables in metrics.go, which
// bench_test.go holds it equal to.
func contractFile() string {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	file := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	body, _ := json.MarshalIndent(file, "", "  ")
	return string(body)
}

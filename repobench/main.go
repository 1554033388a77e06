// Command repobench is the repository's benchmark. It runs one named
// workload against the allocator through its public entry points, checks
// every output it produces, and prints the metrics by name, unit and
// sample count, ending with one JSON line:
//
//	go run . --workload solve-flagship --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records spans around every call into a layer and reports the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// endToEndNames and perLayerNames are the metrics the final JSON line
// carries with --trace 0 and --trace 1; BENCHMARK.json lists the same
// names (a test keeps the two in step).
var (
	endToEndNames = []string{
		"setup_s", "latency_ms_mean", "decisions_per_s", "cost",
		"ratio_to_lb", "cap_overrun", "success_frac", "peak_heap_mb",
	}
	perLayerNames = []string{
		"core.solve_ms_p50", "core.overhead_ms_p50", "core.alloc_mb_per_slot",
		"core.allocs_per_slot", "core.converged_frac", "core.users_resolved_frac", "core.readmitted_users",
		"alm.outer_per_slot", "fista.inner_per_slot",
		"shard.coord_iters_per_slot", "shard.residual_max", "shard.straggler_ratio",
		"sparse.nnz_per_slot", "sparse.rounds_per_slot", "sparse.expanded_pairs",
		"entropy.logcache_hit_ratio", "cert.ms", "model.evaluate_ms",
		"conform.check_ms", "conform.violations", "runtime.gc_cpu_frac",
		"trace.overhead_ms", "trace.overhead_frac",
	}
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(seed int64, seconds float64, rec *recorder) (*runReport, error){
	"solve-flagship": func(seed int64, seconds float64, rec *recorder) (*runReport, error) {
		return solveRun(flagshipSpec, seed, seconds, rec)
	},
	"solve-churn": func(seed int64, seconds float64, rec *recorder) (*runReport, error) {
		return solveRun(churnSpec, seed, seconds, rec)
	},
	"serve-stream": func(seed int64, seconds float64, rec *recorder) (*runReport, error) {
		return serveRun(streamSpec, seed, seconds, rec)
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "measured time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from spans")
	out := fs.String("out", filepath.Join(".bench_build", "repobench"), "directory for the report and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "repobench: want --workload {%s} --seed N --seconds S --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	rep, err := runFn(*seed, *seconds, rec)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	rep.Workload, rep.Seed, rep.Trace, rep.Host = *workload, *seed, *trace == 1, host()

	names := endToEndNames
	if rep.Trace {
		names = perLayerNames
	}
	line, err := rep.resultLine(names)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	if err := rep.save(*out, rec); err != nil {
		fmt.Fprintln(stderr, "repobench: writing report:", err)
		return 1
	}
	rep.print(stdout)
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number with its unit, the number of samples it
// summarizes, and how it was measured.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// MarshalJSON writes a value the sample could not support (NaN) as null.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	out := struct {
		plain
		Value *float64 `json:"value"`
	}{plain: plain(m)}
	if !math.IsNaN(m.Value) {
		out.Value = &m.Value
	}
	return json.Marshal(out)
}

// check is one output-correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// hostFacts identify the machine a report was measured on.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// runReport is everything one run measured and checked.
type runReport struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Host      hostFacts `json:"host"`
	EndToEnd  []metric  `json:"end_to_end"`
	PerLayer  []metric  `json:"per_layer"`
	Info      []metric  `json:"info"`
	Checks    []check   `json:"checks"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
}

func (r *runReport) e2e(name, unit string, v float64, n int, note string) {
	r.EndToEnd = append(r.EndToEnd, metric{name, unit, v, n, note})
}

func (r *runReport) layer(name, unit string, v float64, n int, note string) {
	r.PerLayer = append(r.PerLayer, metric{name, unit, v, n, note})
}

func (r *runReport) info(name, unit string, v float64, n int, note string) {
	r.Info = append(r.Info, metric{name, unit, v, n, note})
}

func (r *runReport) check(name string, ok bool, err error) {
	c := check{Name: name, OK: ok}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

func (r *runReport) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultLine builds the final JSON line from exactly the named metrics.
func (r *runReport) resultLine(names []string) ([]byte, error) {
	all := map[string]metric{}
	for _, m := range append(append([]metric(nil), r.EndToEnd...), r.PerLayer...) {
		all[m.Name] = m
	}
	res := result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]resultMetric{}}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", r.Workload, n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %g", r.Workload, n, m.Value)
		}
		res.Metrics[n] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(res)
}

// print writes the human-readable report.
func (r *runReport) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "repobench %s seed=%d trace=%v  nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		r.Workload, r.Seed, r.Trace, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
	fmt.Fprintln(w, "BENCH_solver.json, BENCH_serve.json and bench-diff are left as they are; this benchmark does not read or write them.")
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
		}
	}
	if r.Trace {
		section("per-layer (traced run):", r.PerLayer)
		section("end-to-end as measured with tracing on (not comparable with --trace 0):", r.EndToEnd)
	} else {
		section("end-to-end:", r.EndToEnd)
	}
	section("also measured:", r.Info)
	failed := 0
	for _, c := range r.Checks {
		if !c.OK {
			failed++
			fmt.Fprintf(w, "CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "checks: %d passed, %d failed; operations: %d attempted, %d failed\n",
		len(r.Checks)-failed, failed, r.Attempted, r.Failed)
}

// save writes the full report, and with tracing the spans as JSONL and
// their self times by name, under dir.
func (r *runReport) save(dir string, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Trace)))
	if rec != nil {
		spans := rec.closed()
		f, err := os.Create(base + ".spans.jsonl")
		if err != nil {
			return err
		}
		if err := writeJSONL(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		byName := selfByName(spans)
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := byName[n]
			r.info("self."+n+"_ms_p50", "ms", median(v), len(v), "span self time")
		}
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".report.json", b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gcSample is a reading of the runtime's CPU accounting.
type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since is the GC share of CPU time between two readings.
func (g gcSample) since(g0 gcSample) float64 {
	if d := g.total - g0.total; d > 0 {
		return (g.gc - g0.gc) / d
	}
	return 0
}

// peakHeapMB is the heap memory obtained from the OS so far, in MiB; the
// runtime does not give mapped heap back to HeapSys, so it is the run's
// high-water mark.
func peakHeapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

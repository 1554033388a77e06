// Command edgebench runs the ablation studies that go beyond the paper's
// figures — the value of prediction (lookahead windows), the entropy vs
// quadratic regularization comparison, and the adversarial lower-bound
// probe — plus the solver microbenchmarks that track the performance
// trajectory. See DESIGN.md §7/§8 and EXPERIMENTS.md ("Beyond the paper").
//
// Usage:
//
//	edgebench                      # all ablations at the default scale
//	edgebench -ablation lookahead -users 20 -horizon 12 -reps 2
//	edgebench -workers 4           # bound the experiment worker pool
//	edgebench -benchjson BENCH_solver.json   # dump solver microbenchmarks
//	edgebench -benchdiff BENCH_solver.json   # regression gate vs a dump
//	edgebench -cpuprofile cpu.prof ...       # profile any of the above
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"edgealloc/internal/experiments"
	"edgealloc/internal/perf"
	"edgealloc/internal/prof"
)

// regressionThreshold is the ns/op growth beyond which -benchdiff fails.
const regressionThreshold = 0.25

func main() {
	os.Exit(run())
}

func run() int {
	var (
		ablation = flag.String("ablation", "all",
			"study to run: lookahead, regularizer, adversarial, or 'all'")
		users      = flag.Int("users", 10, "number of mobile users J")
		horizon    = flag.Int("horizon", 8, "number of time slots T")
		reps       = flag.Int("reps", 2, "independent repetitions")
		seed       = flag.Int64("seed", 20140212, "base random seed")
		workers    = flag.Int("workers", 0, "concurrent (row, rep, algorithm) runs (0 = all CPUs); results are identical for any value")
		candidates = flag.Int("candidates", 0,
			"per-user candidate-set size for the paper's algorithm in the ablations (0 = full variable space; any value is certified equal to the full solve)")
		fastmath = flag.Bool("fastmath", false,
			"evaluate the paper algorithm's entropy terms with the batch fast-math kernels (costs agree with the exact path to 1e-8; not bitwise-reproducible against it)")
		fastmath32 = flag.Bool("fastmath32", false,
			"with the fast-math kernels, store the ratio scratch in float32 (implies -fastmath)")
		shards = flag.Int("shards", 0,
			"split the paper algorithm's per-slot solve across this many user shards coordinated by consensus ADMM in the ablations (0 = single program; composes with -candidates and -fastmath)")
		shardWkrs = flag.String("shard-workers", "",
			"comma-separated shard-worker base URLs (cmd/edgeshard) to place the ablations' shard blocks on over RPC; dead workers fold back to local solving (requires -shards)")
		benchjson = flag.String("benchjson", "",
			"run the solver microbenchmarks and write machine-readable JSON to this file (e.g. BENCH_solver.json), skipping the ablations")
		benchdiff = flag.String("benchdiff", "",
			"run the solver microbenchmarks and compare against this baseline JSON, exiting nonzero if any kernel regressed more than 25% ns/op or grew its allocs/op past the gate")
		scale = flag.Bool("scale", false,
			"include the StepScale/StepSparse/StepShard/StepChurn scaling tier in -benchjson/-benchdiff (adds tens of minutes)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgebench: %v\n", err)
		return 1
	}
	defer stopProf()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "edgebench: %v\n", err)
		return 1
	}

	if *benchjson != "" && *benchdiff != "" {
		return fail(fmt.Errorf("-benchjson and -benchdiff are mutually exclusive"))
	}

	if *benchjson != "" {
		recs := perf.RunAll(*scale)
		perf.WriteTable(os.Stdout, recs)
		f, err := os.Create(*benchjson)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := perf.WriteJSON(f, recs); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", *benchjson)
		return 0
	}

	if *benchdiff != "" {
		f, err := os.Open(*benchdiff)
		if err != nil {
			return fail(err)
		}
		base, err := perf.ReadJSON(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		if missing := perf.MissingRecords(base, perf.Specs(true)); len(missing) > 0 {
			return fail(fmt.Errorf("%d kernel(s) have no record in %s: %v — record them with -scale -benchjson",
				len(missing), *benchdiff, missing))
		}
		rows := perf.Diff(base, perf.RunAll(*scale))
		perf.WriteDiffTable(os.Stdout, rows)
		if missing := perf.MissingBaselines(rows); len(missing) > 0 {
			return fail(fmt.Errorf("%d kernel(s) have no baseline in %s: %v — regenerate it with -benchjson",
				len(missing), *benchdiff, missing))
		}
		if regs := perf.Regressions(rows, regressionThreshold); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "edgebench: %d kernel(s) regressed vs %s (more than %.0f%% ns/op, or allocs/op past the gate)\n",
				len(regs), *benchdiff, 100*regressionThreshold)
			return 1
		}
		fmt.Printf("no kernel regressed vs %s (ns/op within %.0f%%, allocs/op within the gate)\n",
			*benchdiff, 100*regressionThreshold)
		return 0
	}

	p := experiments.Params{
		Users:        *users,
		Horizon:      *horizon,
		Reps:         *reps,
		Seed:         *seed,
		Workers:      *workers,
		Candidates:   *candidates,
		Shards:       *shards,
		ShardWorkers: splitCSV(*shardWkrs),
		FastMath:     *fastmath,
		FastMathF32:  *fastmath32,
	}
	studies := []string{*ablation}
	if *ablation == "all" {
		studies = []string{"lookahead", "regularizer", "adversarial"}
	}
	for _, s := range studies {
		start := time.Now()
		res, err := experiments.AblationByName(s, p)
		if err != nil {
			return fail(err)
		}
		res.WriteTable(os.Stdout)
		fmt.Printf("   (%s in %v)\n\n", res.Figure, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// splitCSV splits a comma-separated flag value into its non-empty,
// whitespace-trimmed items (nil for an empty value).
func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

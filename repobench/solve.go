package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// deployOptions is the one solver configuration every solve-* workload
// runs: the sharded candidate path of the recorded StepShard and
// StepChurn-full numbers, sized for a 2-CPU host (2 shards, 2 solver
// workers). It is fixed here, not read from the host, so runs on any
// machine solve the same programs.
func deployOptions() core.Options {
	return core.Options{
		Candidates:   4,
		CandidateTol: 1.0,
		Shards:       2,
		Solver: alm.Options{
			MaxOuter: 3, InnerIters: 60, Workers: 2,
			FeasTol: 1e-5, DualTol: 1e-2, ObjTol: 1e-8, Penalty: 2,
		},
		ShardRho:       16,
		ShardMaxIters:  12,
		ShardPrimalTol: 1e-4,
		ShardDualTol:   5e-2,
	}
}

// solveSpec is one in-process solve workload.
type solveSpec struct {
	tag     int64 // seed label, distinct per workload
	I, J, T int
	mob     mobility
	// minEpisodes always run; quality metrics come from these alone, so
	// they depend on the seed and not on how many episodes fit in the
	// measured time.
	minEpisodes int
	// warmup slots after slot 0 are solved and checked but not timed:
	// they carry the solver from the generator's greedy placement to its
	// steady state, which takes several times the coordination rounds of
	// a steady slot.
	warmup int
	// tailQ is the slot-time percentile reported as the tail: the highest
	// one minEpisodes·(T−1−warmup) steady slots support.
	tailQ float64
}

// The flagship point: every slot ~30% of users re-attach and operation
// prices are redrawn. The churn point: 2% of users re-attach and prices
// drift by at most ±2% a slot.
var (
	flagshipSpec = solveSpec{tag: 1, I: 50, J: 5000, T: 17, mob: mobility{Churn: 0.30}, minEpisodes: 3, warmup: 2, tailQ: 0.75}
	churnSpec    = solveSpec{tag: 2, I: 50, J: 5000, T: 17, mob: mobility{Churn: 0.02, Drift: 0.02}, minEpisodes: 3, warmup: 2, tailQ: 0.75}
)

// setupReps is how many times each episode sets up its algorithm.
const setupReps = 5

// feasTol is the relative feasibility tolerance every schedule must meet
// (the conformance oracle's default).
const feasTol = 1e-4

// episodeResult is what one solve episode measured.
type episodeResult struct {
	setups           []float64 // construction + slot 0, seconds
	cost, lowerBound float64
	capLoadMax       float64 // max over slots and clouds of load/capacity
	violations       int
	checkErr         error
	certMs, evalMs   float64
	conformMs        float64
	converged, slots int
}

// slotSample is what one steady slot measured.
type slotSample struct {
	wallMs float64
	diag   core.StepDiag
	traced bool
	// allocation deltas, measured on traced slots only
	allocMB, allocs float64
}

// solveRun measures one solve-* workload.
func solveRun(spec solveSpec, seed int64, seconds float64, rec *recorder) (*runReport, error) {
	ctx := context.Background()
	opts := deployOptions()
	rep := &runReport{}
	var (
		episodes []episodeResult
		slots    []slotSample
	)
	gc0 := readGC()
	start := time.Now()
	// Past minEpisodes, an episode starts only if it should end in time.
	for e := 0; e < spec.minEpisodes || time.Since(start).Seconds()*float64(e+1)/float64(e) <= seconds; e++ {
		in, err := solveInstance(mix(seed, spec.tag, int64(e)), spec.I, spec.J, spec.T, spec.mob)
		if err != nil {
			return nil, err
		}
		ep, ss, err := solveEpisode(ctx, in, opts, spec.warmup, int64(e), rec)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", e, err)
		}
		episodes = append(episodes, ep)
		slots = append(slots, ss...)
	}
	wall := time.Since(start).Seconds()
	gcFrac := readGC().since(gc0)

	var setups, walls, wallT, wallU []float64
	steadyWall, coord := 0.0, 0
	for _, ep := range episodes {
		setups = append(setups, ep.setups...)
	}
	for _, s := range slots {
		walls = append(walls, s.wallMs)
		steadyWall += s.wallMs / 1e3
		coord += s.diag.ShardIters
		if s.traced {
			wallT = append(wallT, s.wallMs)
		} else {
			wallU = append(wallU, s.wallMs)
		}
	}

	// Quality over the episodes every run completes.
	var costSum, lbSum float64
	for _, ep := range episodes[:spec.minEpisodes] {
		costSum += ep.cost
		lbSum += ep.lowerBound
	}
	capMax, converged, total, violations := 0.0, 0, 0, 0
	for e, ep := range episodes {
		capMax = math.Max(capMax, ep.capLoadMax)
		converged += ep.converged
		total += ep.slots
		violations += ep.violations
		rep.check(fmt.Sprintf("episode %d: conform.Check clean and CheckFeasible(%g)", e, feasTol),
			ep.checkErr == nil, ep.checkErr)
	}
	rep.Attempted = total
	tail, ok := percentile(walls, spec.tailQ)
	if !ok {
		return nil, fmt.Errorf("%d steady slots cannot support a p%g", len(walls), 100*spec.tailQ)
	}

	n := len(walls)
	rep.e2e("setup_s", "s", median(setups), len(setups), "median of construction + slot 0 over episodes")
	rep.e2e("latency_ms_mean", "ms", 1e3*steadyWall/float64(n), n, "mean StepCtx wall time over steady slots")
	rep.e2e("decisions_per_s", "1/s", float64(n)/steadyWall, n, "steady slots per second of StepCtx wall time")
	rep.e2e("cost", "cost", costSum/float64(spec.minEpisodes), spec.minEpisodes, "mean slot-coupled weighted P0 cost per episode (Instance.Evaluate)")
	rep.e2e("ratio_to_lb", "ratio", costSum/lbSum, spec.minEpisodes, "cost / Certificate().LowerBoundP0(), summed over episodes")
	rep.e2e("cap_overrun", "ratio", math.Max(1, capMax), total, "max(1, max over slots and clouds of load/capacity)")
	rep.e2e("success_frac", "ratio", 1, total, "slots solved without error; always 1, since a failed StepCtx aborts the run")
	rep.e2e("peak_heap_mb", "MB", peakHeapMB(), 1, "high-water heap obtained from the OS (MemStats.HeapSys)")

	rep.info("slot_ms_p50", "ms", median(walls), n, "median StepCtx wall time over steady slots")
	rep.info(fmt.Sprintf("slot_ms_p%g", 100*spec.tailQ), "ms", tail, n, "the highest percentile the steady slots support")
	rep.info("users_per_s", "1/s", float64(spec.J)*float64(n)/steadyWall, n, "J × steady slots / their wall time")
	rep.info("coord_iters_per_slot", "count", float64(coord)/float64(n), n, "mean StepDiag.ShardIters over steady slots; slot time grows with it")
	rep.info("episodes", "count", float64(len(episodes)), len(episodes), "")
	rep.info("nonconverged_slots", "count", float64(total-converged), total, "")
	rep.info("conform_violations", "count", float64(violations), len(episodes), "")
	rep.info("measured_s", "s", wall, 1, "wall time of all episodes, checks included")

	if rec == nil {
		return rep, nil
	}
	rep.layer("core.converged_frac", "ratio", float64(converged)/float64(total), total, "slots whose solve met its tolerances")
	solverLayers(rep, episodes, slots, spec.J, opts.Shards, "steady slots")
	rep.layer("runtime.gc_cpu_frac", "ratio", gcFrac, 1, "GC CPU / total CPU over the run")
	traceOverhead(rep, wallT, wallU, "slot wall time, alternating slots")
	return rep, nil
}

// solverLayers adds the per-layer metrics both kinds of workload take
// from the solver: per-slot StepDiag figures over slots (allocation
// counts from the traced ones) and per-episode certificate, evaluation
// and conformance timings. J is the users per slot and shards the
// solver's shard count (0: unsharded); from names the slots in the notes.
func solverLayers(rep *runReport, episodes []episodeResult, slots []slotSample, J, shards int, from string) {
	var (
		solveMs, overMs, outer, inner, coord, resid []float64
		straggle, nnz, rounds, expanded, hitRatio   []float64
		resolved, readm, allocMB, allocs            []float64
		certMs, evalMs, conformMs                   []float64
	)
	violations := 0
	for _, s := range slots {
		d := s.diag
		solveMs = append(solveMs, d.Seconds*1e3)
		overMs = append(overMs, s.wallMs-d.Seconds*1e3)
		outer = append(outer, float64(d.Outer))
		inner = append(inner, float64(d.Inner))
		coord = append(coord, float64(d.ShardIters))
		resid = append(resid, d.ShardResidual)
		if shards > 0 && d.Seconds > 0 {
			straggle = append(straggle, d.ShardMaxSeconds/(d.Seconds/float64(shards)))
		}
		nnz = append(nnz, float64(d.CandNNZ))
		rounds = append(rounds, float64(d.CandRounds))
		expanded = append(expanded, float64(d.CandExpanded))
		if h := d.LogCacheHits + d.LogCacheMisses; h > 0 {
			hitRatio = append(hitRatio, float64(d.LogCacheHits)/float64(h))
		}
		resolved = append(resolved, 1-float64(d.FrozenUsers)/float64(J))
		readm = append(readm, float64(d.ReadmittedUsers))
		if s.traced {
			allocMB = append(allocMB, s.allocMB)
			allocs = append(allocs, s.allocs)
		}
	}
	for _, ep := range episodes {
		certMs = append(certMs, ep.certMs)
		evalMs = append(evalMs, ep.evalMs)
		conformMs = append(conformMs, ep.conformMs)
		violations += ep.violations
	}
	n := len(slots)
	mean := func(v []float64) float64 { return sum(v) / float64(n) }
	rep.layer("core.solve_ms_p50", "ms", median(solveMs), n, "StepDiag.Seconds, "+from)
	rep.layer("core.overhead_ms_p50", "ms", median(overMs), n, "StepCtx wall − StepDiag.Seconds, "+from)
	rep.layer("core.alloc_mb_per_slot", "MB", median(allocMB), len(allocMB), "median MemStats.TotalAlloc delta per traced slot")
	rep.layer("core.allocs_per_slot", "count", median(allocs), len(allocs), "median MemStats.Mallocs delta per traced slot")
	rep.layer("core.users_resolved_frac", "ratio", median(resolved), n, "median 1 − StepDiag.FrozenUsers/J")
	rep.layer("core.readmitted_users", "count", mean(readm), n, "mean StepDiag.ReadmittedUsers")
	rep.layer("alm.outer_per_slot", "count", mean(outer), n, "mean StepDiag.Outer")
	rep.layer("fista.inner_per_slot", "count", mean(inner), n, "mean StepDiag.Inner")
	rep.layer("shard.coord_iters_per_slot", "count", mean(coord), n, "mean StepDiag.ShardIters")
	rep.layer("shard.residual_max", "ratio", maxOf(resid), n, "max StepDiag.ShardResidual")
	rep.layer("shard.straggler_ratio", "ratio", medianOrZero(straggle), len(straggle), "median ShardMaxSeconds / (solve / shards); 0 when unsharded")
	rep.layer("sparse.nnz_per_slot", "count", mean(nnz), n, "mean StepDiag.CandNNZ")
	rep.layer("sparse.rounds_per_slot", "count", mean(rounds), n, "mean StepDiag.CandRounds")
	rep.layer("sparse.expanded_pairs", "count", sum(expanded), n, "total StepDiag.CandExpanded")
	rep.layer("entropy.logcache_hit_ratio", "ratio", medianOrZero(hitRatio), len(hitRatio), "median LogCacheHits / (hits + misses)")
	rep.layer("cert.ms", "ms", median(certMs), len(certMs), "median Certificate() time per run of the algorithm")
	rep.layer("model.evaluate_ms", "ms", median(evalMs), len(evalMs), "median Instance.Evaluate time per run")
	rep.layer("conform.check_ms", "ms", median(conformMs), len(conformMs), "median conform.Check time per run")
	rep.layer("conform.violations", "count", float64(violations), len(episodes), "conform.Check violations over all runs")
}

// traceOverhead adds the cost of tracing, from the latencies of traced
// and untraced operations of the same run.
func traceOverhead(rep *runReport, traced, plain []float64, what string) {
	over := median(traced) - median(plain)
	n := len(traced) + len(plain)
	rep.layer("trace.overhead_ms", "ms", over, n, "median traced − median untraced "+what)
	rep.layer("trace.overhead_frac", "ratio", over/median(plain), n, "trace.overhead_ms / untraced median")
}

// solveEpisode runs one instance through the online algorithm, timing
// set-up and every steady slot, then checks and costs the schedule.
// With a recorder, every other steady slot is traced so the untraced
// ones give the tracing overhead in the same run.
func solveEpisode(ctx context.Context, in *model.Instance, opts core.Options, warmup int, e int64, rec *recorder) (episodeResult, []slotSample, error) {
	var ep episodeResult
	traceID := func(t int) int64 { return e*1000 + int64(t) }

	// Set-up is repeated and the last algorithm kept, so each episode
	// gives setupReps set-up samples.
	var alg *core.OnlineApprox
	for r := 0; r < setupReps; r++ {
		root := rec.begin(traceID(0), 0, "setup")
		t0 := time.Now()
		sp := rec.begin(traceID(0), root, "core.new")
		alg = core.NewOnlineApprox(in, opts)
		rec.end(sp, nil)
		sp = rec.begin(traceID(0), root, "core.step.slot0")
		if _, err := alg.StepCtx(ctx, 0); err != nil {
			return ep, nil, err
		}
		rec.end(sp, nil)
		ep.setups = append(ep.setups, time.Since(t0).Seconds())
		rec.end(root, nil)
	}
	if alg.LastStepDiag().Converged {
		ep.converged++
	}

	var samples []slotSample
	var ms0, ms1 runtime.MemStats
	for t := 1; t < in.T; t++ {
		traced := rec != nil && t%2 == 1
		var root int64
		if traced {
			runtime.ReadMemStats(&ms0)
			root = rec.begin(traceID(t), 0, "core.step")
		}
		ts := time.Now()
		if _, err := alg.StepCtx(ctx, t); err != nil {
			return ep, nil, err
		}
		wall := time.Since(ts)
		s := slotSample{wallMs: float64(wall.Nanoseconds()) / 1e6, diag: alg.LastStepDiag(), traced: traced}
		if traced {
			rec.end(root, map[string]float64{"solve_s": s.diag.Seconds, "outer": float64(s.diag.Outer), "inner": float64(s.diag.Inner), "coord": float64(s.diag.ShardIters)})
			runtime.ReadMemStats(&ms1)
			s.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			s.allocs = float64(ms1.Mallocs - ms0.Mallocs)
		}
		if s.diag.Converged {
			ep.converged++
		}
		if t > warmup {
			samples = append(samples, s)
		}
	}
	ep.slots = in.T
	if err := finishEpisode(in, alg, &ep, rec, traceID(in.T)); err != nil {
		return ep, nil, err
	}
	return ep, samples, nil
}

// finishEpisode certifies, costs and checks the schedule of a completed
// run of alg on in, timing each call and recording its spans under trace.
// The checks' verdict goes to ep.checkErr; an error means a call failed.
func finishEpisode(in *model.Instance, alg *core.OnlineApprox, ep *episodeResult, rec *recorder, trace int64) error {
	sched := alg.Schedule()
	root := rec.begin(trace, 0, "check")
	defer rec.end(root, nil)
	ts := time.Now()
	sp := rec.begin(trace, root, "cert")
	cert, err := alg.Certificate()
	rec.end(sp, nil)
	ep.certMs = msSince(ts)
	if err != nil {
		return err
	}
	ts = time.Now()
	sp = rec.begin(trace, root, "model.evaluate")
	b, err := in.Evaluate(sched)
	rec.end(sp, nil)
	ep.evalMs = msSince(ts)
	if err != nil {
		return err
	}
	sp = rec.begin(trace, root, "model.feasible")
	feasErr := in.CheckFeasible(sched, feasTol)
	rec.end(sp, nil)
	ts = time.Now()
	sp = rec.begin(trace, root, "conform.check")
	report := conform.Check(in, sched, oracleDiagnostics(alg, cert), conform.Options{})
	rec.end(sp, nil)
	ep.conformMs = msSince(ts)

	ep.cost = in.Total(b)
	ep.lowerBound = cert.LowerBoundP0()
	ep.violations = len(report.Violations)
	ep.capLoadMax = capLoadMax(in, sched)
	switch {
	case feasErr != nil:
		ep.checkErr = feasErr
	case !report.OK():
		ep.checkErr = report.Err()
	case !(ep.lowerBound > 0) || ep.cost < ep.lowerBound:
		ep.checkErr = fmt.Errorf("cost %g not above certified lower bound %g", ep.cost, ep.lowerBound)
	}
	return nil
}

// oracleDiagnostics hands the conformance oracle a completed run's
// certificate and Theorem-2 ratio, as edged does at a session's end.
func oracleDiagnostics(alg *core.OnlineApprox, cert *core.Certificate) *conform.Diagnostics {
	return &conform.Diagnostics{
		HasCertificate: true,
		LowerBoundP0:   cert.LowerBoundP0(),
		LowerBoundP1:   cert.LowerBoundP1(),
		DualResidual:   cert.Feasibility.Max(),
		NuCharge:       cert.NuCharge,
		RatioBound:     alg.CompetitiveRatioBound(),
	}
}

// capLoadMax is the largest load/capacity ratio over slots and clouds.
func capLoadMax(in *model.Instance, s model.Schedule) float64 {
	m := 0.0
	tot := make([]float64, in.I)
	for _, x := range s {
		x.CloudTotalsInto(tot)
		for i, v := range tot {
			m = math.Max(m, v/in.Capacity[i])
		}
	}
	return m
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func medianOrZero(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

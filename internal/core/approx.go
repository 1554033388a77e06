// Package core implements the paper's primary contribution: the
// regularization-based online resource-allocation algorithm (§III) and its
// competitive-analysis machinery (§IV).
//
// At the start of every slot t the algorithm observes the current prices
// and user locations, takes the previous slot's decision x*_{·,·,t-1} as
// input, and optimally solves the convex program P2, whose objective is
// the slot's static cost plus two relative-entropy regularizers standing
// in for the reconfiguration and migration hinges:
//
//	Σ_ij a~_{ij,t}·x_ij
//	+ Σ_i  (c_i/η_i)  ((X_i +ε₁) ln((X_i +ε₁)/(X'_i +ε₁)) − X_i)
//	+ Σ_ij (b_i/τ_ij) ((x_ij+ε₂) ln((x_ij+ε₂)/(x'_ij+ε₂)) − x_ij)
//
// with X_i = Σ_j x_ij, η_i = ln(1+C_i/ε₁), τ_ij = ln(1+λ_j/ε₂) and
// b_i = b_i^out + b_i^in. The per-slot optima form a feasible solution of
// the original problem (Theorem 1) with competitive ratio 1 + γ|I|
// (Theorem 2). The ALM solver also returns the dual multipliers θ', ρ' of
// the demand and complement-capacity rows, from which a per-run lower
// bound on the offline optimum is certified (see certificate.go).
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
	"edgealloc/internal/solver/par"
	"edgealloc/internal/solver/transport"
	"edgealloc/internal/telemetry"
)

// Options tunes the online algorithm.
type Options struct {
	// Epsilon1 and Epsilon2 are the paper's ε₁ and ε₂ regularization
	// parameters (both default 1; Fig 4 sweeps them jointly).
	Epsilon1, Epsilon2 float64
	// Solver passes tolerances to the per-slot ALM solve. Zero values use
	// the package defaults tuned for the experiments. Solver.Workers also
	// bounds the intra-evaluation parallelism of P2's objective; results
	// are byte-identical for any value.
	Solver alm.Options
	// DenseRows switches P2's constraints to the generic sparse-row
	// reference path (p2Constraints) instead of the structured group-sum
	// kernel (p2Groups). The dense complement rows cost O(I²·J) per
	// Lagrangian evaluation versus O(I·J) structured; the option exists
	// for the structured-vs-dense property tests and the before/after
	// scaling benchmarks.
	DenseRows bool
	// Candidates > 0 enables the certified candidate-set solving path:
	// each slot, user j's variables are restricted to its Candidates
	// nearest clouds (by inter-cloud delay from the slot's attachment)
	// plus every cloud carrying flow from the previous slot, and the
	// reduced optimum is certified equal to the full P2 optimum by a
	// dual-feasibility pricing pass that re-admits mispriced pairs and
	// re-solves warm (see sparse.go). 0 solves the full dense variable
	// space directly. Takes precedence over DenseRows.
	Candidates int
	// Shards > 0 enables the user-sharded dual-decomposition path: the J
	// users are split into Shards contiguous shards, each solving its
	// reduced P2 (static + migration + demand rows over its own users, on
	// its own ragged candidate set and ALM/FISTA workspace) in parallel,
	// while a sharing-ADMM coordination loop on the per-cloud totals
	// (internal/solver/shard) carries the reconfiguration regularizer and
	// the complement/capacity rows and certifies the assembled schedule
	// primal-feasible and dual-consistent (see shard.go and DESIGN.md
	// §7e). 0 keeps the single-program paths bitwise unchanged. Composes
	// with Candidates and FastMath; Solver.Workers bounds the number of
	// concurrently solving shards, and results are byte-identical for any
	// worker count. Takes precedence over DenseRows.
	Shards int
	// ShardRho is the coordination loop's ADMM consensus penalty,
	// ShardMaxIters its iteration cap, and ShardPrimalTol/ShardDualTol
	// its consensus-residual and price-movement tolerances. Zero values
	// take the internal/solver/shard defaults (4, 60, 1e-8, 1e-6); only
	// meaningful with Shards > 0.
	ShardRho       float64
	ShardMaxIters  int
	ShardPrimalTol float64
	ShardDualTol   float64
	// ShardWorkers lists shard-worker base URLs (cmd/edgeshard instances,
	// e.g. "http://127.0.0.1:9711"). When non-empty and Shards > 0, each
	// shard block is placed on a worker round-robin and its consensus
	// x-steps run there over the shardrpc protocol, with the in-process
	// block kept as a warm mirror: worker failures retry with backoff,
	// worker restarts are replayed from the mirror's last round state, and
	// a worker that stays unreachable folds its blocks back into local
	// solving, so a run never fails because a worker died. Workers run the
	// identical solve code, so a clean-path distributed run is bitwise
	// equal to the in-process run. Empty (the default) keeps every solve
	// in-process and the sharded path bitwise unchanged.
	ShardWorkers []string
	// ShardRPCTimeout bounds one worker HTTP attempt and ShardRPCRetries
	// is the number of re-attempts after a retryable failure. Zero values
	// take the shardrpc defaults (30s, 2); negative retries disable
	// retrying. Only meaningful with ShardWorkers.
	ShardRPCTimeout time.Duration
	ShardRPCRetries int
	// CandidateTol is the reduced-cost tolerance of the pricing pass,
	// relative to 1 + |static coefficient| per pair (default 1e-7):
	// pruned pairs priced below −CandidateTol·(1+|ā_ij|) rejoin the
	// problem. Only meaningful with Candidates > 0.
	CandidateTol float64
	// FastMath routes the entropy hot loop through the batch kernels of
	// internal/numkernel: the per-variable migration logs are computed a
	// row at a time (ratio gather → LogBatch → accumulate) with the
	// denominator reciprocals precomputed once per slot, instead of the
	// default per-element divide + math.Log + memo cache. Each kernel
	// operation is within 1e-12 relative of the stdlib, and end-to-end
	// schedule costs agree with the exact path to 1e-8 (pinned by
	// property tests and the conformance oracle); the trade is bitwise
	// reproducibility against the default path. Off by default.
	FastMath bool
	// FastMathF32 additionally stores the J-wide ratio and reciprocal
	// scratch vectors of the fast path in float32, halving the memory
	// bandwidth of the entropy passes at large J; the accumulation stays
	// float64. Log accuracy drops to the float32 tier (≤1e-6 relative
	// per operation). Implies FastMath.
	FastMathF32 bool
	// Metrics optionally records per-slot solver telemetry (solve latency,
	// ALM/FISTA iteration counts, candidate-set expansion work, per-cloud
	// utilization) into the shared instrument bundle. Nil records nothing;
	// recording never changes results.
	Metrics *telemetry.SolverMetrics
}

func (o Options) withDefaults() Options {
	if o.Epsilon1 <= 0 {
		o.Epsilon1 = 1
	}
	if o.Epsilon2 <= 0 {
		o.Epsilon2 = 1
	}
	if o.Solver.MaxOuter == 0 {
		o.Solver.MaxOuter = 60
	}
	if o.Solver.InnerIters == 0 {
		o.Solver.InnerIters = 900
	}
	if o.Solver.FeasTol == 0 {
		o.Solver.FeasTol = 1e-7
	}
	if o.Solver.Penalty == 0 {
		o.Solver.Penalty = 2
	}
	if o.CandidateTol <= 0 {
		o.CandidateTol = 1e-7
	}
	if o.FastMathF32 {
		o.FastMath = true
	}
	return o
}

// OnlineApprox runs the paper's online algorithm over an instance,
// recording per-slot decisions and dual multipliers.
//
// Each OnlineApprox owns its solver workspace and per-instance caches, so
// distinct instances may run concurrently; a single OnlineApprox must not
// be shared between goroutines.
type OnlineApprox struct {
	inst *model.Instance
	opts Options

	prev      model.Alloc // x*_{·,·,t-1}
	warmDuals []float64
	slot      int

	schedule model.Schedule
	// Thetas[t][j] and Rhos[t][i] are the optimal multipliers θ'_{j,t}
	// and ρ'_{i,t} of P2's demand and complement-capacity constraints.
	// Nus[t][i] are the multipliers of the explicit capacity rows (zero
	// wherever the paper's Theorem-1 claim holds).
	thetas [][]float64
	rhos   [][]float64
	nus    [][]float64

	// Per-instance caches, lazily built on the first Step: P2's constraint
	// geometry and the objective's entropy constants are slot-independent,
	// and the ALM workspace makes repeated Step calls allocation-free in
	// the solver hot path. prevBuf backs prev across slots, userTot is the
	// repair scratch, and thetaBuf/rhoBuf/nuBuf back the per-slot dual
	// records, so steady-state Step allocates only the decision it returns.
	cons     []alm.Constraint
	groups   *alm.Groups
	lower    []float64
	sparse   *sparseState
	shrd     *shardState
	obj      *p2Objective
	prob     alm.Problem
	ws       alm.Workspace
	prevBuf  []float64
	userTot  []float64
	thetaBuf []float64
	rhoBuf   []float64
	nuBuf    []float64

	// dualsBuf owns the warm-start multipliers between slots. The solver's
	// Result.Duals alias workspace memory that a later (possibly cancelled)
	// solve scribbles over, so the accepted duals are copied out here: a
	// Step aborted by context cancellation then leaves the warm state of
	// the next Step exactly as the last successful slot wrote it.
	dualsBuf []float64
	// cloudTot is the utilization scratch of the telemetry hook, allocated
	// on first use so metric-free runs pay nothing.
	cloudTot []float64
	lastDiag StepDiag
}

// StepDiag describes the solver work of the most recent successful Step:
// the per-slot numbers the telemetry layer exports and the serving
// daemon returns to clients.
type StepDiag struct {
	// Slot is the slot the diagnostics describe.
	Slot int
	// Seconds is the wall-clock duration of the P2 solve (including
	// candidate expansion rounds, excluding schedule bookkeeping).
	Seconds float64
	// Outer and Inner are the ALM multiplier updates and FISTA iterations
	// spent on the slot, summed over candidate expansion rounds.
	Outer, Inner int
	// Converged reports whether the final ALM solve met its tolerances.
	Converged bool
	// CandRounds, CandExpanded, and CandNNZ describe the candidate-set
	// path (zero when Options.Candidates is off): reduced solves, pairs
	// re-admitted by pricing, and the certified solve's packed size.
	CandRounds, CandExpanded, CandNNZ int
	// ShardIters, ShardResidual, and ShardMaxSeconds describe the sharded
	// coordination path (zero when Options.Shards is off): outer dual-
	// ascent iterations spent on the slot, the final max consensus/
	// capacity residual, and the slowest shard's cumulative solve time.
	ShardIters      int
	ShardResidual   float64
	ShardMaxSeconds float64
	// LogCacheHits and LogCacheMisses count the slot's migration-log
	// memo-cache outcomes on the exact evaluation path (hits are logs
	// reused without recomputation; the zero-flow skip is counted by
	// neither). Both are zero under Options.FastMath, which replaces the
	// cache with batch kernels.
	LogCacheHits, LogCacheMisses int64
	// FrozenUsers and ReadmittedUsers are always zero: every path
	// re-solves every user each slot. They remain so readers of the
	// per-slot diagnostics keep a stable field set.
	FrozenUsers, ReadmittedUsers int
}

// NewOnlineApprox prepares a run over a validated instance. A nil
// instance is allowed for an algorithm object that will only be used
// through Solve (which binds the instance passed to it); Step and Run
// require a non-nil instance.
func NewOnlineApprox(inst *model.Instance, opts Options) *OnlineApprox {
	o := &OnlineApprox{
		inst: inst,
		opts: opts.withDefaults(),
	}
	if inst != nil {
		o.prev = inst.InitialAlloc()
	}
	return o
}

// Name identifies the algorithm in experiment output.
func (o *OnlineApprox) Name() string { return "online-approx" }

// Step solves P2 for slot t (which must be the next unprocessed slot) and
// returns the allocation decision.
func (o *OnlineApprox) Step(t int) (model.Alloc, error) {
	return o.StepCtx(context.Background(), t)
}

// StepCtx is Step with cooperative cancellation: the context is polled
// between FISTA sweeps inside the per-slot solve, so a cancelled or
// timed-out ctx aborts the slot promptly with an error wrapping
// ctx.Err(). A cancelled Step leaves the algorithm state exactly as the
// previous successful slot left it — the previous decision, the warm-
// start multipliers, and the slot counter are untouched — so the same
// slot can be retried (and produces the same decision an uncancelled run
// would have).
func (o *OnlineApprox) StepCtx(ctx context.Context, t int) (model.Alloc, error) {
	if ctx != nil && ctx.Done() == nil {
		// Never-cancellable context (Background/TODO): skip polling so the
		// solver hot loop stays branch-for-branch identical to Step.
		ctx = nil
	}
	if t != o.slot {
		return model.Alloc{}, fmt.Errorf("core: Step(%d) out of order, expected %d", t, o.slot)
	}
	in := o.inst
	o.ensureInit(in)
	o.obj.bind(in, t, o.prev)

	solveStart := time.Now()
	var statsBefore SparseStats
	if o.sparse != nil {
		statsBefore = o.sparse.stats
	}
	var shardBefore ShardStats
	if o.shrd != nil {
		shardBefore = o.shrd.stats
	}
	var res *alm.Result
	var xSrc []float64
	if o.shrd != nil {
		r, xd, err := o.solveShard(ctx, t)
		if err != nil {
			return model.Alloc{}, fmt.Errorf("core: slot %d: %w", t, err)
		}
		res, xSrc = r, xd
	} else if o.sparse != nil {
		r, xd, err := o.solveSparse(ctx, t)
		if err != nil {
			return model.Alloc{}, fmt.Errorf("core: slot %d: %w", t, err)
		}
		res, xSrc = r, xd
	} else {
		o.prob = alm.Problem{
			Obj:    o.obj,
			N:      in.I * in.J,
			Lower:  o.lower,
			Cons:   o.cons,
			Groups: o.groups,
		}
		sopts := o.opts.Solver
		sopts.Workspace = &o.ws
		sopts.Ctx = ctx
		sopts.WarmX = o.prev.X
		if t == 0 && allZero(o.prev.X) {
			// From the formal model's x_{·,·,0} = 0 every complement-capacity
			// row starts violated by the full Λ−C_i, and the penalty pushes
			// the entire allocation upward before the demand duals settle,
			// which can leave an over-allocated (capacity-violating) point.
			// Starting from any demand-tight feasible point — the slot's
			// static-cost transportation optimum — avoids that regime
			// entirely; Theorem 1 then keeps every later slot feasible.
			if warm, err := feasibleWarmStart(in, t); err == nil {
				sopts.WarmX = warm
			}
		}
		if o.warmDuals != nil {
			sopts.WarmDuals = o.warmDuals
		}
		r, err := alm.Solve(&o.prob, sopts)
		if err != nil {
			return model.Alloc{}, fmt.Errorf("core: slot %d: %w", t, err)
		}
		res, xSrc = r, r.X
	}

	solveSeconds := time.Since(solveStart).Seconds()

	// res.X/res.Duals alias the workspace (and the sparse path's dense
	// scatter aliases its scratch); copy the decision out before the next
	// Step overwrites them.
	x := model.Alloc{I: in.I, J: in.J, X: append([]float64(nil), xSrc...)}
	repair(in, x, o.userTot)

	copy(o.prevBuf, x.X)
	if o.dualsBuf == nil {
		o.dualsBuf = make([]float64, len(res.Duals))
	}
	copy(o.dualsBuf, res.Duals)
	o.warmDuals = o.dualsBuf
	o.schedule = append(o.schedule, x)
	theta := o.thetaBuf[t*in.J : (t+1)*in.J]
	copy(theta, res.Duals[:in.J])
	rho := o.rhoBuf[t*in.I : (t+1)*in.I]
	copy(rho, res.Duals[in.J:in.J+in.I])
	nu := o.nuBuf[t*in.I : (t+1)*in.I]
	copy(nu, res.Duals[in.J+in.I:in.J+2*in.I])
	o.thetas = append(o.thetas, theta)
	o.rhos = append(o.rhos, rho)
	o.nus = append(o.nus, nu)

	o.lastDiag = StepDiag{
		Slot:      t,
		Seconds:   solveSeconds,
		Outer:     res.Outer,
		Inner:     res.InnerIters,
		Converged: res.Converged,
	}
	switch {
	case o.shrd != nil:
		d := &o.lastDiag
		s := o.shrd.stats
		d.CandRounds = s.Rounds - shardBefore.Rounds
		d.CandExpanded = s.Expanded - shardBefore.Expanded
		d.CandNNZ = s.FinalNNZ
		d.ShardIters = s.CoordIters - shardBefore.CoordIters
		d.ShardResidual = s.MaxResidual
		d.ShardMaxSeconds = s.MaxSeconds
		for _, b := range o.shrd.blocks {
			h, m := b.obj.logCacheTotals()
			d.LogCacheHits += h
			d.LogCacheMisses += m
		}
	case o.sparse != nil:
		d := &o.lastDiag
		s := o.sparse.stats
		// The sparse result reports the final round only; the stats deltas
		// cover every expansion round of the slot.
		d.Outer = s.OuterIters - statsBefore.OuterIters
		d.Inner = s.InnerIters - statsBefore.InnerIters
		d.CandRounds = s.Rounds - statsBefore.Rounds
		d.CandExpanded = s.Expanded - statsBefore.Expanded
		d.CandNNZ = s.FinalNNZ
		d.LogCacheHits, d.LogCacheMisses = o.sparse.obj.logCacheTotals()
	default:
		o.lastDiag.LogCacheHits, o.lastDiag.LogCacheMisses = o.obj.logCacheTotals()
	}
	if m := o.opts.Metrics; m != nil {
		d := o.lastDiag
		m.ObserveStep(d.Seconds, d.Outer, d.Inner, d.Converged)
		m.ObserveLogCache(d.LogCacheHits, d.LogCacheMisses)
		if o.sparse != nil || o.shrd != nil {
			m.ObserveCandidates(d.CandRounds, d.CandExpanded, d.CandNNZ)
		}
		if o.shrd != nil {
			m.ObserveShards(d.ShardIters, d.ShardResidual, o.shrd.blockSecs)
		}
		if o.cloudTot == nil {
			o.cloudTot = make([]float64, in.I)
		}
		x.CloudTotalsInto(o.cloudTot)
		for i := 0; i < in.I; i++ {
			m.SetCloudUtilization(i, o.cloudTot[i]/in.Capacity[i])
		}
	}

	o.slot++
	return x, nil
}

// ensureInit lazily builds the per-instance caches on the first Step (or
// on RestoreState): P2's constraint geometry and the objective's entropy
// constants are slot-independent, and the ALM workspace makes repeated
// Step calls allocation-free in the solver hot path.
func (o *OnlineApprox) ensureInit(in *model.Instance) {
	if o.obj != nil {
		return
	}
	o.obj = newP2ObjectiveConst(in, o.opts.Epsilon1, o.opts.Epsilon2)
	o.obj.workers = o.opts.Solver.Workers
	if o.opts.FastMath {
		o.obj.enableFast(o.opts.FastMathF32)
	}
	switch {
	case o.opts.Shards > 0:
		o.initShard(in)
	case o.opts.Candidates > 0:
		o.initSparse(in)
	case o.opts.DenseRows:
		o.cons = p2Constraints(in, 0)
		o.lower = make([]float64, in.I*in.J)
	default:
		o.groups = p2Groups(in)
		o.lower = make([]float64, in.I*in.J)
	}
	o.prevBuf = make([]float64, in.I*in.J)
	copy(o.prevBuf, o.prev.X)
	o.prev = model.Alloc{I: in.I, J: in.J, X: o.prevBuf}
	o.userTot = make([]float64, in.J)
	o.thetaBuf = make([]float64, in.T*in.J)
	o.rhoBuf = make([]float64, in.T*in.I)
	o.nuBuf = make([]float64, in.T*in.I)
	o.schedule = make(model.Schedule, 0, in.T)
	o.thetas = make([][]float64, 0, in.T)
	o.rhos = make([][]float64, 0, in.T)
	o.nus = make([][]float64, 0, in.T)
}

// LastStepDiag returns the solver diagnostics of the most recent
// successful Step (the zero value before any slot has been solved).
func (o *OnlineApprox) LastStepDiag() StepDiag { return o.lastDiag }

// Run executes all remaining slots and returns the full schedule.
func (o *OnlineApprox) Run() (model.Schedule, error) {
	for t := o.slot; t < o.inst.T; t++ {
		if _, err := o.Step(t); err != nil {
			return nil, err
		}
	}
	return o.schedule, nil
}

// Solve runs the algorithm on a fresh state over the whole instance. It
// is the entry point used by the simulator.
func (o *OnlineApprox) Solve(in *model.Instance) (model.Schedule, error) {
	fresh := NewOnlineApprox(in, o.opts)
	s, err := fresh.Run()
	if err != nil {
		return nil, err
	}
	// Keep the dual record available for certification.
	*o = *fresh
	return s, nil
}

// Duals returns the recorded per-slot multipliers (θ, ρ) for the slots
// processed so far. The returned slices alias internal state and must not
// be modified.
func (o *OnlineApprox) Duals() (thetas, rhos [][]float64) { return o.thetas, o.rhos }

// Schedule returns the decisions made so far.
func (o *OnlineApprox) Schedule() model.Schedule { return o.schedule }

// p2Constraints builds P2's rows: demand Σ_i x_ij ≥ λ_j for every user,
// the paper's complement-capacity rows Σ_{k≠i} Σ_j x_kj ≥ (Λ − C_i)⁺ for
// every cloud, and finally explicit capacity rows Σ_j x_ij ≤ C_i.
//
// The capacity rows are not in the paper's P2: Theorem 1 claims the
// complement rows alone keep the optimum within capacity. That claim has
// a gap — when one cloud is much cheaper than the rest, P2's exact
// optimum over-serves demand, parks the complement-row padding on other
// clouds, and pushes the cheap cloud beyond C_i (observed on our
// instances; see DESIGN.md). The explicit rows restore the evidently
// intended feasibility; where the paper's claim does hold they bind only
// where the complement rows bind and change nothing.
func p2Constraints(in *model.Instance, t int) []alm.Constraint {
	_ = t // constraint geometry is slot-independent; kept for clarity
	nI, nJ := in.I, in.J
	cons := make([]alm.Constraint, 0, nJ+2*nI)
	for j := 0; j < nJ; j++ {
		idx := make([]int, nI)
		coef := make([]float64, nI)
		for i := 0; i < nI; i++ {
			idx[i] = i*nJ + j
			coef[i] = 1
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: in.Workload[j]})
	}
	lambda := in.TotalWorkload()
	for i := 0; i < nI; i++ {
		rhs := lambda - in.Capacity[i]
		if rhs < 0 {
			rhs = 0
		}
		idx := make([]int, 0, (nI-1)*nJ)
		coef := make([]float64, 0, (nI-1)*nJ)
		for k := 0; k < nI; k++ {
			if k == i {
				continue
			}
			for j := 0; j < nJ; j++ {
				idx = append(idx, k*nJ+j)
				coef = append(coef, 1)
			}
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: rhs})
	}
	for i := 0; i < nI; i++ {
		idx := make([]int, nJ)
		coef := make([]float64, nJ)
		for j := 0; j < nJ; j++ {
			idx[j] = i*nJ + j
			coef[j] = -1
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: -in.Capacity[i]})
	}
	return cons
}

// p2Groups builds the same rows as p2Constraints in structured group-sum
// form: demand rows are per-user column sums, the complement rows are the
// grid total minus one cloud's row sum, and the capacity rows are negated
// cloud row sums. Row order (demand, complement, capacity) matches
// p2Constraints exactly, so the dual layout consumed by the certificate
// (θ' then ρ' then ν') is unchanged.
func p2Groups(in *model.Instance) *alm.Groups {
	nI, nJ := in.I, in.J
	rows := make([]alm.GroupRow, 0, nJ+2*nI)
	for j := 0; j < nJ; j++ {
		rows = append(rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: j, RHS: in.Workload[j]})
	}
	lambda := in.TotalWorkload()
	for i := 0; i < nI; i++ {
		rhs := lambda - in.Capacity[i]
		if rhs < 0 {
			rhs = 0
		}
		rows = append(rows, alm.GroupRow{Kind: alm.GroupComplement, Index: i, RHS: rhs})
	}
	for i := 0; i < nI; i++ {
		rows = append(rows, alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: i, RHS: -in.Capacity[i]})
	}
	return &alm.Groups{I: nI, J: nJ, Blocks: 1, Rows: rows}
}

// evalParGrain is the minimum number of variables per worker before
// p2Objective.Eval goes parallel; tests shrink it to exercise the
// parallel path on small instances. The objective costs several
// transcendental calls per variable (log for the entropy terms, exp
// inside the softplus), so a few thousand variables already amortize a
// goroutine handoff.
var evalParGrain = 4096

// p2Objective evaluates P2's objective and gradient. Rows (clouds) are
// independent, so Eval blocks them over a bounded worker pool when
// workers > 1 and the instance is large enough; per-row partial values
// land in rowF and reduce in row order, keeping the result byte-identical
// for any worker count.
type p2Objective struct {
	nI, nJ  int
	coef    []float64 // weighted static coefficients (I×J)
	prev    []float64 // x'_{ij}
	prevTot []float64 // X'_i
	rcFac   []float64 // wRc·c_i/η_i per cloud
	mgFac   []float64 // wMg·b_i/τ_ij per (i,j)
	eps1    float64
	eps2    float64
	workers int

	rowF []float64 // per-cloud partial objective values

	// hitRow/missRow count per-cloud log-cache outcomes; per-row slots
	// keep the counting race-free and deterministic under the parallel
	// evaluation path, exactly like rowF. bind resets them each slot.
	hitRow  []int64
	missRow []int64

	// Fast-math tier (Options.FastMath): fast selects the batch-kernel
	// evaluation path, invDen holds the per-slot reciprocals
	// 1/(x'_{ij}+ε₂) and ratio is the row-sliced log scratch. The *32
	// pair replaces invDen/ratio under Options.FastMathF32. The exact
	// path leaves all of these nil.
	fast     bool
	invDen   []float64
	ratio    []float64
	invDen32 []float32
	ratio32  []float32

	// lastNum/lastLg2 memoize the migration-term log per variable: the
	// solver evaluates the objective thousands of times per slot, and late
	// in a solve most entries are static across evaluations (converged, or
	// clipped at the zero bound while x'_{ij} ≠ 0), so their log argument
	// repeats exactly. The cache stores the argument and the math.Log
	// result it produced, making reuse bitwise identical to recomputation;
	// bind invalidates it (the denominator changes with x'). Each entry is
	// only touched by the evaluation of its own cloud row, so the parallel
	// path stays race-free and deterministic.
	lastNum []float64
	lastLg2 []float64
}

var _ fista.Objective = (*p2Objective)(nil)

// newP2ObjectiveConst computes the slot-independent constants of P2's
// objective — the entropy scale factors η_i and τ_ij of the paper — once
// per (instance, ε) pair. bind attaches the per-slot state.
func newP2ObjectiveConst(in *model.Instance, eps1, eps2 float64) *p2Objective {
	o := &p2Objective{
		nI:      in.I,
		nJ:      in.J,
		coef:    make([]float64, in.I*in.J),
		prevTot: make([]float64, in.I),
		rcFac:   make([]float64, in.I),
		mgFac:   make([]float64, in.I*in.J),
		eps1:    eps1,
		eps2:    eps2,
		rowF:    make([]float64, in.I),
		hitRow:  make([]int64, in.I),
		missRow: make([]int64, in.I),
		lastNum: make([]float64, in.I*in.J),
		lastLg2: make([]float64, in.I*in.J),
	}
	for i := 0; i < in.I; i++ {
		eta := math.Log1p(in.Capacity[i] / eps1)
		o.rcFac[i] = in.WRc * in.ReconfPrice[i] / eta
		b := in.WMg * (in.MigOutPrice[i] + in.MigInPrice[i])
		for j := 0; j < in.J; j++ {
			tau := math.Log1p(in.Workload[j] / eps2)
			o.mgFac[i*in.J+j] = b / tau
		}
	}
	return o
}

// enableFast switches the objective onto the batch-kernel path
// (Options.FastMath), allocating the reciprocal and ratio scratch in the
// requested storage width. Call before the first bind.
func (o *p2Objective) enableFast(f32 bool) {
	o.fast = true
	if f32 {
		o.invDen32 = make([]float32, o.nI*o.nJ)
		o.ratio32 = make([]float32, o.nI*o.nJ)
		return
	}
	o.invDen = make([]float64, o.nI*o.nJ)
	o.ratio = make([]float64, o.nI*o.nJ)
}

// bind points the objective at slot t's prices and the previous decision,
// reusing the cached buffers.
func (o *p2Objective) bind(in *model.Instance, t int, prev model.Alloc) {
	in.StaticCoeffInto(t, o.coef)
	o.prev = prev.X
	prev.CloudTotalsInto(o.prevTot)
	if o.fast {
		// The fast path divides once per slot here instead of once per
		// element per evaluation; the memo cache is unused.
		if o.invDen32 != nil {
			entropyInvDen32(o.invDen32, o.prev, o.eps2)
		} else {
			entropyInvDen(o.invDen, o.prev, o.eps2)
		}
	} else {
		for k := range o.lastNum {
			o.lastNum[k] = math.NaN() // never equal: invalidate the log cache
		}
	}
	for i := range o.hitRow {
		o.hitRow[i] = 0
		o.missRow[i] = 0
	}
}

// logCacheTotals sums the per-row cache counters accumulated since the
// last bind.
func (o *p2Objective) logCacheTotals() (hits, misses int64) {
	for i := range o.hitRow {
		hits += o.hitRow[i]
		misses += o.missRow[i]
	}
	return hits, misses
}

func newP2Objective(in *model.Instance, t int, prev model.Alloc, eps1, eps2 float64) *p2Objective {
	o := newP2ObjectiveConst(in, eps1, eps2)
	o.bind(in, t, prev)
	return o
}

// Eval implements fista.Objective.
func (o *p2Objective) Eval(x, grad []float64) float64 {
	if w := par.Bound(o.workers, o.nI*o.nJ, evalParGrain); w <= 1 {
		// Closure-free serial path: Eval runs thousands of times per
		// Step, and a closure handed to par.Ranges escapes (it may be
		// launched on goroutines), costing one heap allocation per call.
		o.evalRows(x, grad, 0, o.nI)
	} else {
		par.Ranges(w, o.nI, func(lo, hi int) { o.evalRows(x, grad, lo, hi) })
	}
	f := 0.0
	for _, v := range o.rowF {
		f += v
	}
	return f
}

// evalRows evaluates cloud rows [lo, hi) into rowF.
func (o *p2Objective) evalRows(x, grad []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		o.rowF[i] = o.evalRow(i, x, grad)
	}
}

// evalRow computes cloud i's slice of the objective and gradient: the
// reconfiguration regularizer on the cloud total plus the static and
// migration terms of the row's (i, j) pairs. Rows touch disjoint state.
// The element loop is duplicated for the gradient and value-only cases
// (FISTA's backtracking trials are value-only) so neither pays the other's
// per-element branch, with the row slices hoisted for bounds-check
// elimination.
func (o *p2Objective) evalRow(i int, x, grad []float64) float64 {
	if o.fast {
		return o.evalRowFast(i, x, grad)
	}
	base := i * o.nJ
	row := x[base : base+o.nJ]
	coef := o.coef[base : base+o.nJ]
	prev := o.prev[base : base+o.nJ]
	mgFac := o.mgFac[base : base+o.nJ]
	// Migration regularizer per (cloud, user). Most variables sit where
	// the iterate equals the previous decision (typically both at the zero
	// bound: a user is served by few clouds), making the ratio exactly 1
	// and the log exactly 0 — skipping the division and math.Log there is
	// bitwise identical and removes the transcendental cost from the
	// (i, j) pairs that carry no flow. The term-by-term loops live in
	// entropy.go, shared with the packed candidate-set path.
	lastNum := o.lastNum[base : base+o.nJ]
	lastLg2 := o.lastLg2[base : base+o.nJ]
	if grad == nil {
		// Value-only evaluation (a FISTA backtracking trial): the cloud
		// total feeds only the reconfiguration term, so it is accumulated
		// alongside the element terms in a single pass and the
		// reconfiguration regularizer is added at the end.
		s, f, hits, misses := entropyRowValue(row, coef, prev, mgFac, lastNum, lastLg2, o.eps2)
		o.hitRow[i] += hits
		o.missRow[i] += misses
		lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
		return f + o.rcFac[i]*((s+o.eps1)*lg-s)
	}
	s := 0.0
	for _, v := range row {
		s += v
	}
	// Reconfiguration regularizer on the cloud total.
	lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
	f := o.rcFac[i] * ((s+o.eps1)*lg - s)
	f, hits, misses := entropyRowGrad(row, coef, prev, mgFac, lastNum, lastLg2,
		grad[base:base+o.nJ], o.eps2, f, o.rcFac[i]*lg)
	o.hitRow[i] += hits
	o.missRow[i] += misses
	return f
}

// evalRowFast is evalRow on the batch-kernel tier (Options.FastMath):
// one fused sum+gather pass, one in-place batch log over the row, one
// accumulation pass. See entropy.go for the tier's accuracy contract.
func (o *p2Objective) evalRowFast(i int, x, grad []float64) float64 {
	base := i * o.nJ
	row := x[base : base+o.nJ]
	coef := o.coef[base : base+o.nJ]
	mgFac := o.mgFac[base : base+o.nJ]
	if o.ratio32 != nil {
		ratio := o.ratio32[base : base+o.nJ]
		s := entropyRatioPass32(row, o.invDen32[base:base+o.nJ], ratio, o.eps2)
		logBatch32(ratio, ratio)
		lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
		if grad == nil {
			f := entropyFastValue32(row, coef, mgFac, ratio, o.eps2)
			return f + o.rcFac[i]*((s+o.eps1)*lg-s)
		}
		f := o.rcFac[i] * ((s+o.eps1)*lg - s)
		return entropyFastGrad32(row, coef, mgFac, ratio,
			grad[base:base+o.nJ], o.eps2, f, o.rcFac[i]*lg)
	}
	ratio := o.ratio[base : base+o.nJ]
	s := entropyRatioPass(row, o.invDen[base:base+o.nJ], ratio, o.eps2)
	logBatch(ratio, ratio)
	lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
	if grad == nil {
		f := entropyFastValue(row, coef, mgFac, ratio, o.eps2)
		return f + o.rcFac[i]*((s+o.eps1)*lg-s)
	}
	f := o.rcFac[i] * ((s+o.eps1)*lg - s)
	return entropyFastGrad(row, coef, mgFac, ratio,
		grad[base:base+o.nJ], o.eps2, f, o.rcFac[i]*lg)
}

// repair clips negative round-off and tops up any marginally under-served
// user on its attached cloud so that downstream feasibility checks with
// tight tolerances pass. The adjustments are on the order of the solver
// tolerance (≤1e-6 relative) and do not affect measured costs. served is
// a length-J scratch buffer.
func repair(in *model.Instance, x model.Alloc, served []float64) {
	for k, v := range x.X {
		if v < 0 {
			x.X[k] = 0
		}
	}
	x.UserTotalsInto(served)
	for j := 0; j < in.J; j++ {
		if deficit := in.Workload[j] - served[j]; deficit > 0 {
			// Scale the user's column up proportionally; fall back to the
			// cheapest-by-index cloud when the column is all zero.
			if served[j] > 0 {
				f := in.Workload[j] / served[j]
				for i := 0; i < in.I; i++ {
					x.Set(i, j, x.At(i, j)*f)
				}
			} else {
				x.Set(0, j, in.Workload[j])
			}
		}
	}
}

// allZero reports whether every entry of v is zero.
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// feasibleWarmStart returns the slot's static-cost transportation optimum,
// a demand-tight point satisfying all of P2's constraints.
func feasibleWarmStart(in *model.Instance, t int) ([]float64, error) {
	cost := make([][]float64, in.I)
	coef := in.StaticCoeff(t)
	for i := range cost {
		cost[i] = coef[i*in.J : (i+1)*in.J]
	}
	sol, err := transport.Solve(&transport.Problem{
		Cost:   cost,
		Supply: in.Capacity,
		Demand: in.Workload,
	})
	if err != nil {
		return nil, err
	}
	warm := make([]float64, in.I*in.J)
	for i := 0; i < in.I; i++ {
		copy(warm[i*in.J:(i+1)*in.J], sol.Flow[i])
	}
	return warm, nil
}

// CompetitiveRatioBound returns Theorem 2's certified ratio r = 1 + γ|I|
// for the bound instance under the run's ε parameters, or 0 when no
// instance is bound yet. It implements the harness's RatioBounder
// interface so the conformance oracle can check the achieved cost
// against the certificate.
func (o *OnlineApprox) CompetitiveRatioBound() float64 {
	if o.inst == nil {
		return 0
	}
	return RatioBound(o.inst, o.opts.Epsilon1, o.opts.Epsilon2)
}

// RatioBound returns the paper's parameterized competitive ratio
// r = 1 + γ|I| with
// γ = max_i{(C_i+ε₁)ln(1+C_i/ε₁), (C_i+ε₂)ln(1+C_i/ε₂)} (Theorem 2).
func RatioBound(in *model.Instance, eps1, eps2 float64) float64 {
	gamma := 0.0
	for _, c := range in.Capacity {
		if v := (c + eps1) * math.Log1p(c/eps1); v > gamma {
			gamma = v
		}
		if v := (c + eps2) * math.Log1p(c/eps2); v > gamma {
			gamma = v
		}
	}
	return 1 + gamma*float64(in.I)
}

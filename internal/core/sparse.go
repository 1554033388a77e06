package core

import (
	"context"
	"math"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/par"
)

// This file implements the candidate-set (active-set) solving layer of
// the online algorithm. P2 is posed over the full I×J grid, but its cost
// geometry — service-quality delay d(l_{j,t}, i) plus migration
// penalties — puts almost all of each user's mass on a handful of clouds
// near its attachment, so at the optimum the vast majority of variables
// sit at the zero bound. With Options.Candidates = k the per-slot solve
// is restricted to the ragged space K_j = {k clouds nearest l_{j,t}} ∪
// {clouds with x'_{ij} > 0}: Σ_j |K_j| variables instead of I·J, and
// every FISTA iteration inside the ALM loop drops proportionally.
//
// The reduction is certified, not heuristic. Because every carryover
// cloud stays in K_j, a pruned pair has x'_{ij} = 0, so its migration
// regularizer vanishes at x_{ij} = 0 and the reduced objective equals
// the full objective on the embedded point (x_K, 0). After each reduced
// solve the converged ALM multipliers (θ'_j demand, ρ'_i complement,
// ν'_i capacity — the same S_D machinery the competitive-ratio
// certificate consumes) price every pruned pair:
//
//	redcost(i, j) = ā_{ij,t} + (ĉ_i/η_i)·ln((X_i+ε₁)/(X'_i+ε₁))
//	                − θ'_j − (Σ_k ρ'_k − ρ'_i) + ν'_i,
//
// the KKT stationarity residual of x_{ij} at its lower bound. If every
// pruned pair prices nonnegative, the embedded point satisfies the full
// problem's KKT system with the reduced duals — it IS the full optimum
// (to the solver's own dual accuracy, the same caveat the dense solve
// carries). Mispriced pairs join K_j and the solve resumes warm, on the
// union index set, with the multipliers carried over unchanged (the dual
// dimension never changes: rows are per-user and per-cloud, not
// per-variable). Sets only grow, so the loop terminates — in the worst
// case at the dense grid, which costs what the dense solve always cost.
type sparseState struct {
	builder *model.CandidateBuilder
	cand    model.CandidateSet
	// nearest[a] lists the Options.Candidates clouds closest to cloud a
	// by inter-cloud delay; users are seeded with nearest[l_{j,t}].
	nearest [][]int
	groups  *alm.Groups
	obj     *p2SparseObjective
	lower   []float64 // packed zeros (lower bound), grown on demand
	warm    []float64 // packed warm start, grown on demand
	xDense  []float64 // dense scatter of the latest reduced solution
	rcln    []float64 // per-cloud reconfiguration gradient at the optimum
	stats   SparseStats
}

// SparseStats counts the work of the candidate-set path for
// observability; retrieve with OnlineApprox.SparseStats.
type SparseStats struct {
	// Slots is the number of slots solved on the candidate path.
	Slots int
	// Rounds is the total number of reduced solves; Rounds − Slots is the
	// number of expansion re-solves the pricing pass triggered.
	Rounds int
	// Expanded is the total number of (i, j) pairs re-admitted by pricing.
	Expanded int
	// FinalNNZ is Σ_j |K_j| of the most recent certified solve.
	FinalNNZ int
	// InnerIters is the total number of FISTA iterations across all
	// reduced solves — the per-pair work multiplier the reduction divides.
	InnerIters int
	// OuterIters is the total number of ALM multiplier updates across all
	// reduced solves.
	OuterIters int
}

// SparseStats returns the candidate-set work counters (zero value when
// the candidate path is disabled).
func (o *OnlineApprox) SparseStats() SparseStats {
	if o.sparse == nil {
		return SparseStats{}
	}
	return o.sparse.stats
}

// initSparse builds the per-instance candidate-set state. The structured
// rows are the same demand/complement/capacity rows as the dense path
// (p2Groups) — only the variable layout differs, so the dual record and
// the certificate machinery are untouched.
func (o *OnlineApprox) initSparse(in *model.Instance) {
	o.sparse = &sparseState{
		builder: model.NewCandidateBuilder(in.I, in.J),
		nearest: model.NearestClouds(in.InterDelay, o.opts.Candidates),
		groups:  p2Groups(in),
		obj: &p2SparseObjective{
			nI:      in.I,
			eps1:    o.opts.Epsilon1,
			eps2:    o.opts.Epsilon2,
			workers: o.opts.Solver.Workers,
			fast:    o.opts.FastMath,
			fast32:  o.opts.FastMathF32,
			rowF:    make([]float64, in.I),
			hitRow:  make([]int64, in.I),
			missRow: make([]int64, in.I),
		},
		xDense: make([]float64, in.I*in.J),
		rcln:   make([]float64, in.I),
	}
}

// solveSparse runs slot t's certified reduced solve: seed candidate sets,
// solve, price, expand until dual-feasible. It returns the converged ALM
// result (duals in the standard θ, ρ, ν layout) and the dense scatter of
// the decision; the returned slice aliases sparse scratch and is only
// valid until the next call.
func (o *OnlineApprox) solveSparse(ctx context.Context, t int) (*alm.Result, []float64, error) {
	in, s := o.inst, o.sparse

	// Seed: per-user nearest clouds plus the support of the warm-start
	// point. The warm start is the previous decision — whose support is
	// exactly the carryover set that keeps migration terms exact — except
	// at a zero-allocation t = 0, where it is the slot's transportation
	// optimum (see feasibleWarmStart) and its support must be admitted
	// for the warm point to be representable.
	s.builder.Reset()
	for j := 0; j < in.J; j++ {
		s.builder.AddUserSet(j, s.nearest[in.Attach[t][j]])
	}
	warmDense := o.prev.X
	if t == 0 && allZero(o.prev.X) {
		if warm, err := feasibleWarmStart(in, t); err == nil {
			warmDense = warm
		}
	}
	s.builder.AddSupport(warmDense)
	s.builder.Build(&s.cand)

	for i := range s.obj.hitRow {
		s.obj.hitRow[i] = 0
		s.obj.missRow[i] = 0
	}

	sopts := o.opts.Solver
	sopts.Workspace = &o.ws
	sopts.Ctx = ctx
	if o.warmDuals != nil {
		sopts.WarmDuals = o.warmDuals
	}
	for {
		s.stats.Rounds++
		nnz := s.cand.NNZ()
		o.bindSparse(warmDense)
		o.prob = alm.Problem{
			Obj:    s.obj,
			N:      nnz,
			Lower:  s.lower[:nnz],
			Groups: s.groups,
		}
		sopts.WarmX = s.warm[:nnz]
		res, err := alm.Solve(&o.prob, sopts)
		if err != nil {
			return nil, nil, err
		}
		s.stats.InnerIters += res.InnerIters
		s.stats.OuterIters += res.Outer
		// Scatter before pricing: the dense image is both the expansion
		// warm start and, on certification, the slot's decision.
		s.scatter(res.X)
		added := o.priceAndExpand(res)
		if added == 0 {
			s.stats.Slots++
			s.stats.FinalNNZ = nnz
			return res, s.xDense, nil
		}
		s.stats.Expanded += added
		s.builder.Build(&s.cand)
		warmDense = s.xDense
		sopts.WarmDuals = res.Duals
	}
}

// bindSparse sizes the packed buffers for the current candidate set and
// gathers the slot's coefficients, previous decision, migration factors,
// and warm start from the dense objective state (which Step has already
// bound for the slot). Per-cloud constants are shared by aliasing.
func (o *OnlineApprox) bindSparse(warmDense []float64) {
	in, s := o.inst, o.sparse
	so, do := s.obj, o.obj
	nnz := s.cand.NNZ()
	so.rowPtr, so.cols = s.cand.RowPtr, s.cand.Cols
	so.coef = growFloats(so.coef, nnz)
	so.prev = growFloats(so.prev, nnz)
	so.mgFac = growFloats(so.mgFac, nnz)
	s.lower = growFloats(s.lower, nnz) // stays all-zero
	s.warm = growFloats(s.warm, nnz)
	switch {
	case !so.fast:
		so.lastNum = growFloats(so.lastNum, nnz)
		so.lastLg2 = growFloats(so.lastLg2, nnz)
	case so.fast32:
		so.invDen32 = growFloats32(so.invDen32, nnz)
		so.ratio32 = growFloats32(so.ratio32, nnz)
	default:
		so.invDen = growFloats(so.invDen, nnz)
		so.ratio = growFloats(so.ratio, nnz)
	}
	so.rcFac, so.prevTot = do.rcFac, do.prevTot
	nJ := in.J
	for i := 0; i < in.I; i++ {
		base := i * nJ
		for k := s.cand.RowPtr[i]; k < s.cand.RowPtr[i+1]; k++ {
			d := base + s.cand.Cols[k]
			so.coef[k] = do.coef[d]
			so.prev[k] = do.prev[d]
			so.mgFac[k] = do.mgFac[d]
			s.warm[k] = warmDense[d]
			if !so.fast {
				so.lastNum[k] = math.NaN() // invalidate the log cache
			}
		}
	}
	// The fast tier divides once per bind; evaluations then multiply.
	if so.fast {
		if so.fast32 {
			entropyInvDen32(so.invDen32, so.prev, so.eps2)
		} else {
			entropyInvDen(so.invDen, so.prev, so.eps2)
		}
	}
	s.groups.RowPtr, s.groups.Cols = s.cand.RowPtr, s.cand.Cols
}

// scatter writes the packed reduced solution into the dense image,
// zeroing every pruned pair.
func (s *sparseState) scatter(x []float64) {
	for k := range s.xDense {
		s.xDense[k] = 0
	}
	nJ := s.cand.J
	for i := 0; i+1 < len(s.cand.RowPtr); i++ {
		base := i * nJ
		for k := s.cand.RowPtr[i]; k < s.cand.RowPtr[i+1]; k++ {
			s.xDense[base+s.cand.Cols[k]] = x[k]
		}
	}
}

// priceAndExpand checks dual feasibility (KKT stationarity at the zero
// bound) on every pruned pair using the converged multipliers and admits
// the violated ones into the candidate sets, returning how many were
// added. Pruned pairs have x'_{ij} = 0 by the carryover rule, so their
// migration gradient at zero vanishes and the reduced cost needs only
// the static coefficient, the reconfiguration gradient, and the row
// multipliers.
func (o *OnlineApprox) priceAndExpand(res *alm.Result) int {
	in, s := o.inst, o.sparse
	nI, nJ := in.I, in.J
	eps1 := o.opts.Epsilon1
	for i := 0; i < nI; i++ {
		tot := 0.0
		for _, v := range res.X[s.cand.RowPtr[i]:s.cand.RowPtr[i+1]] {
			tot += v
		}
		s.rcln[i] = o.obj.rcFac[i] * math.Log((tot+eps1)/(o.obj.prevTot[i]+eps1))
	}
	theta := res.Duals[:nJ]
	rho := res.Duals[nJ : nJ+nI]
	nu := res.Duals[nJ+nI : nJ+2*nI]
	rhoSum := 0.0
	for _, v := range rho {
		rhoSum += v
	}
	tol := o.opts.CandidateTol
	added := 0
	for i := 0; i < nI; i++ {
		row := o.obj.coef[i*nJ : (i+1)*nJ]
		// Demand row j contributes −θ_j, complement rows i'≠i contribute
		// −(Σρ − ρ_i), and the negated capacity row i contributes +ν_i.
		base := s.rcln[i] - (rhoSum - rho[i]) + nu[i]
		for j, c := range row {
			if s.builder.Contains(i, j) {
				continue
			}
			if c+base-theta[j] < -tol*(1+math.Abs(c)) {
				s.builder.Add(i, j)
				added++
			}
		}
	}
	return added
}

// growFloats returns s resized to n, reusing capacity and otherwise
// reallocating with headroom so expansion rounds settle quickly.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]float64, n, n+n/2)
	copy(out, s[:cap(s)])
	return out
}

// p2SparseObjective evaluates P2's objective and gradient over a ragged
// candidate set, with the variable vector in the packed cloud-major CSR
// layout of model.CandidateSet. The math per kept pair is identical to
// p2Objective.evalRow — same static, migration, and reconfiguration
// terms, same zero-flow log skip and log memoization — applied to
// gathered per-variable constants; pruned pairs contribute exactly
// nothing, which is their true contribution at x = 0 given carryover.
type p2SparseObjective struct {
	nI     int
	rowPtr []int
	cols   []int

	coef  []float64 // packed weighted static coefficients
	prev  []float64 // packed x'_{ij}
	mgFac []float64 // packed wMg·b_i/τ_ij

	rcFac   []float64 // per cloud, aliases the dense objective's
	prevTot []float64 // per cloud, aliases the dense objective's

	eps1, eps2 float64
	workers    int

	rowF []float64 // per-cloud partial objective values

	// hitRow/missRow count per-cloud log-cache outcomes (see p2Objective);
	// solveSparse resets them per slot so they accumulate across the
	// slot's expansion rounds.
	hitRow  []int64
	missRow []int64

	// Fast-math tier (see p2Objective): packed reciprocals and log
	// scratch, refilled by bindSparse each expansion round. fast32
	// selects the float32 storage width.
	fast     bool
	fast32   bool
	invDen   []float64
	ratio    []float64
	invDen32 []float32
	ratio32  []float32

	lastNum []float64 // packed log-cache keys (see p2Objective)
	lastLg2 []float64
}

// logCacheTotals sums the per-row cache counters accumulated since the
// start of the slot.
func (o *p2SparseObjective) logCacheTotals() (hits, misses int64) {
	for i := range o.hitRow {
		hits += o.hitRow[i]
		misses += o.missRow[i]
	}
	return hits, misses
}

// Eval implements fista.Objective. Cloud rows are independent exactly as
// in the dense objective, so they fan out over the same bounded pool
// with per-row partials reduced in index order (byte-identical for any
// worker count).
func (o *p2SparseObjective) Eval(x, grad []float64) float64 {
	if w := par.Bound(o.workers, len(x), evalParGrain); w <= 1 {
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

// evalRows evaluates ragged cloud rows [lo, hi) into rowF.
func (o *p2SparseObjective) evalRows(x, grad []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		o.rowF[i] = o.evalRow(i, x, grad)
	}
}

// evalRow computes cloud i's slice of the objective and gradient over
// its kept pairs. See p2Objective.evalRow for the term-by-term
// derivation; the loops differ only in indexing through the packed
// layout.
func (o *p2SparseObjective) evalRow(i int, x, grad []float64) float64 {
	if o.fast {
		return o.evalRowFast(i, x, grad)
	}
	lo, hi := o.rowPtr[i], o.rowPtr[i+1]
	row := x[lo:hi]
	coef := o.coef[lo:hi]
	prev := o.prev[lo:hi]
	mgFac := o.mgFac[lo:hi]
	lastNum := o.lastNum[lo:hi]
	lastLg2 := o.lastLg2[lo:hi]
	if grad == nil {
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
	lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
	f := o.rcFac[i] * ((s+o.eps1)*lg - s)
	f, hits, misses := entropyRowGrad(row, coef, prev, mgFac, lastNum, lastLg2,
		grad[lo:hi], o.eps2, f, o.rcFac[i]*lg)
	o.hitRow[i] += hits
	o.missRow[i] += misses
	return f
}

// evalRowFast is evalRow on the batch-kernel tier over the packed
// layout; see p2Objective.evalRowFast and entropy.go.
func (o *p2SparseObjective) evalRowFast(i int, x, grad []float64) float64 {
	lo, hi := o.rowPtr[i], o.rowPtr[i+1]
	row := x[lo:hi]
	coef := o.coef[lo:hi]
	mgFac := o.mgFac[lo:hi]
	if o.fast32 {
		ratio := o.ratio32[lo:hi]
		s := entropyRatioPass32(row, o.invDen32[lo:hi], ratio, o.eps2)
		logBatch32(ratio, ratio)
		lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
		if grad == nil {
			f := entropyFastValue32(row, coef, mgFac, ratio, o.eps2)
			return f + o.rcFac[i]*((s+o.eps1)*lg-s)
		}
		f := o.rcFac[i] * ((s+o.eps1)*lg - s)
		return entropyFastGrad32(row, coef, mgFac, ratio,
			grad[lo:hi], o.eps2, f, o.rcFac[i]*lg)
	}
	ratio := o.ratio[lo:hi]
	s := entropyRatioPass(row, o.invDen[lo:hi], ratio, o.eps2)
	logBatch(ratio, ratio)
	lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
	if grad == nil {
		f := entropyFastValue(row, coef, mgFac, ratio, o.eps2)
		return f + o.rcFac[i]*((s+o.eps1)*lg-s)
	}
	f := o.rcFac[i] * ((s+o.eps1)*lg - s)
	return entropyFastGrad(row, coef, mgFac, ratio,
		grad[lo:hi], o.eps2, f, o.rcFac[i]*lg)
}

// growFloats32 is growFloats for the float32 storage tier.
func growFloats32(s []float32, n int) []float32 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]float32, n, n+n/2)
	copy(out, s[:cap(s)])
	return out
}

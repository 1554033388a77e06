package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/shard"
	"edgealloc/internal/solver/shardrpc"
)

// This file implements the user-sharded solving layer of the online
// algorithm (Options.Shards; DESIGN.md §7e). The J users are split into S
// contiguous shards, each solving its own reduced P2 — static cost,
// migration regularizer, and demand rows over its users only, on its own
// ragged candidate set, with its own ALM/FISTA workspace — in parallel,
// while the internal/solver/shard coordinator runs a sharing-ADMM loop on
// the per-cloud totals that carries the reconfiguration regularizer and
// the complement/capacity rows. The coordination prices play the role the
// capacity multipliers play in the monolithic solve; on convergence the
// shard demand duals assemble into θ' and the coordinator's consensus
// subproblem supplies ρ' and ν' in the standard dual layout, so the
// certificate and conformance machinery consume the assembled result
// exactly as they consume the monolithic one.
//
// Candidate sets (Options.Candidates) compose per shard: each shard seeds
// its users' nearest-cloud sets plus carryover support, and after the
// coordination loop converges the same KKT pricing pass as sparse.go
// re-admits mispriced pruned pairs — using the assembled θ/ρ/ν — and the
// coordination resumes warm until no pair prices negative.
type shardState struct {
	parts  []shard.Range
	blocks []*shardBlock
	coord  *shard.Coordinator
	// remotes[si] is the RPC transport placing block si on a shard worker
	// (Options.ShardWorkers; nil when solving in-process). remoteDead
	// tracks fold transitions for the stats counter.
	remotes    []*shardrpc.RemoteBlock
	remoteDead []bool
	// nearest[a] lists the Options.Candidates clouds closest to cloud a;
	// nil when Candidates is off, in which case allClouds admits the full
	// variable space of every shard.
	nearest   [][]int
	allClouds []int
	duals     []float64 // assembled [θ(J) | ρ(I) | ν(I)]
	xDense    []float64 // dense scatter of the assembled decision
	blockSecs []float64 // per-shard solve seconds of the current slot
	rcln      []float64 // per-cloud reconfiguration gradient at the optimum
	restTot   []float64 // per-cloud totals scratch for restoreCapacity
	stats     ShardStats
	res       alm.Result // result view over the assembled duals
}

// ShardStats counts the work of the sharded path for observability;
// retrieve with OnlineApprox.ShardStats.
type ShardStats struct {
	// Slots is the number of slots solved on the sharded path.
	Slots int
	// Rounds is the total number of coordination runs; Rounds − Slots is
	// the number of candidate-expansion re-runs the pricing pass caused.
	Rounds int
	// CoordIters is the total number of coordination (outer dual-ascent)
	// iterations across all slots.
	CoordIters int
	// Expanded is the total number of (i, j) pairs re-admitted by pricing.
	Expanded int
	// FinalNNZ is Σ over shards of the packed size of the most recent
	// certified solve.
	FinalNNZ int
	// BlockOuter/BlockInner sum the shard subproblems' ALM outer and FISTA
	// inner iterations; ZOuter/ZInner count the consensus subproblem's.
	BlockOuter, BlockInner int
	ZOuter, ZInner         int
	// MaxResidual is the final consensus/capacity residual of the most
	// recent slot, and MaxSeconds the slowest shard's cumulative solve
	// time on that slot.
	MaxResidual float64
	MaxSeconds  float64
	// Restored is the total mass moved by the capacity restoration pass
	// across all slots — materially nonzero only when a coordination loop
	// exhausted ShardMaxIters above ShardPrimalTol.
	Restored float64
	// RemoteFallbacks counts remote blocks folded back into local solving
	// (Options.ShardWorkers; zero otherwise). A folded block re-probes its
	// worker at the next few slot boundaries, so one flapping worker can
	// contribute several folds.
	RemoteFallbacks int
}

// ShardStats returns the sharded-path work counters (zero value when the
// sharded path is disabled).
func (o *OnlineApprox) ShardStats() ShardStats {
	if o.shrd == nil {
		return ShardStats{}
	}
	return o.shrd.stats
}

// initShard builds the per-instance sharded state: the user partition,
// one block per shard, and the coordinator holding the consensus problem.
func (o *OnlineApprox) initShard(in *model.Instance) {
	parts := shard.Partition(in.J, o.opts.Shards)
	s := &shardState{
		parts:     parts,
		blocks:    make([]*shardBlock, len(parts)),
		duals:     make([]float64, in.J+2*in.I),
		xDense:    make([]float64, in.I*in.J),
		blockSecs: make([]float64, len(parts)),
		rcln:      make([]float64, in.I),
		restTot:   make([]float64, in.I),
	}
	if o.opts.Candidates > 0 {
		s.nearest = model.NearestClouds(in.InterDelay, o.opts.Candidates)
	} else {
		s.allClouds = make([]int, in.I)
		for i := range s.allClouds {
			s.allClouds[i] = i
		}
	}
	sopts := o.opts.Solver
	sopts.Workers = 0 // shards solve serially inside; parallelism is across shards
	ifaces := make([]shard.Block, len(parts))
	for si, rng := range parts {
		nJ := rng.Len()
		b := &shardBlock{
			st:        s,
			rng:       rng,
			nJ:        nJ,
			builder:   model.NewCandidateBuilder(in.I, nJ),
			xLocal:    make([]float64, in.I*nJ),
			thetaIter: make([]float64, nJ),
			thetaWarm: make([]float64, nJ),
			demand:    in.Workload[rng.Lo:rng.Hi],
			served:    make([]float64, nJ),
			sopts:     sopts,
		}
		rows := make([]alm.GroupRow, nJ)
		for jl := 0; jl < nJ; jl++ {
			rows[jl] = alm.GroupRow{Kind: alm.GroupUserSum, Index: jl, RHS: in.Workload[rng.Lo+jl]}
		}
		b.groups = alm.Groups{I: in.I, J: nJ, Blocks: 1, Rows: rows}
		b.obj = p2ShardObjective{
			nI:     in.I,
			eps2:   o.opts.Epsilon2,
			fast:   o.opts.FastMath,
			fast32: o.opts.FastMathF32,
		}
		s.blocks[si] = b
		ifaces[si] = b
	}
	if workers := o.opts.ShardWorkers; len(workers) > 0 {
		copts := shardrpc.ClientOptions{
			Timeout: o.opts.ShardRPCTimeout,
			Retries: o.opts.ShardRPCRetries,
			Metrics: o.opts.Metrics,
		}
		clients := make([]*shardrpc.Client, len(workers))
		for w, base := range workers {
			clients[w] = shardrpc.NewClient(base, copts)
		}
		// Block IDs must be unique across every coordinator a worker may
		// serve concurrently (several edged replicas, several harness
		// runs), so they carry the process ID and a per-process run
		// counter.
		run := shardRunSeq.Add(1)
		s.remotes = make([]*shardrpc.RemoteBlock, len(parts))
		s.remoteDead = make([]bool, len(parts))
		for si := range parts {
			id := fmt.Sprintf("p%d-r%d-s%d", os.Getpid(), run, si)
			s.remotes[si] = shardrpc.NewRemoteBlock(clients[si%len(clients)], id, s.blocks[si])
			ifaces[si] = s.remotes[si]
		}
	}
	lambda := in.TotalWorkload()
	complRHS := make([]float64, in.I)
	for i := 0; i < in.I; i++ {
		if rhs := lambda - in.Capacity[i]; rhs > 0 {
			complRHS[i] = rhs
		}
	}
	s.coord = shard.NewCoordinator(in.I, ifaces, shard.Coupling{
		RcFac:    o.obj.rcFac,
		PrevTot:  o.obj.prevTot, // rebound in place by o.obj.bind each slot
		Eps1:     o.opts.Epsilon1,
		Capacity: in.Capacity,
		ComplRHS: complRHS,
	}, shard.Options{
		Rho:       o.opts.ShardRho,
		MaxIters:  o.opts.ShardMaxIters,
		PrimalTol: o.opts.ShardPrimalTol,
		DualTol:   o.opts.ShardDualTol,
		Workers:   o.opts.Solver.Workers,
		Solver:    zStepOptions(o.opts.Solver),
	})
	o.shrd = s
}

// shardRunSeq disambiguates the remote-block IDs of coordinators living
// in the same process (see initShard).
var shardRunSeq atomic.Uint64

// zStepOptions derives the coordinator's consensus z-step budget from the
// block budget. The z-step is an I-dimensional program (one variable per
// cloud) — orders of magnitude cheaper than any block solve — and the
// assembled schedule's feasibility rests on its accuracy, so it always
// gets at least the shard package's tight default budget even when the
// blocks run under a throughput-tuned (low-iteration) budget.
func zStepOptions(blk alm.Options) alm.Options {
	z := blk
	z.Workers = 0
	if z.MaxOuter < 40 {
		z.MaxOuter = 40
	}
	if z.InnerIters < 300 {
		z.InnerIters = 300
	}
	if z.FeasTol <= 0 || z.FeasTol > 1e-9 {
		z.FeasTol = 1e-9
	}
	if z.DualTol <= 0 || z.DualTol > 1e-7 {
		z.DualTol = 1e-7
	}
	return z
}

// solveShard runs slot t's sharded solve: per-shard candidate seeding and
// packed binds, the coordination loop, and (with Candidates on) the KKT
// pricing pass over pruned pairs until certified. It returns a result
// whose duals are the assembled [θ | ρ | ν] and the dense scatter of the
// assembled decision; both alias shard scratch, valid until the next call.
func (o *OnlineApprox) solveShard(ctx context.Context, t int) (*alm.Result, []float64, error) {
	in, s := o.inst, o.shrd

	warmDense := o.prev.X
	if t == 0 && allZero(o.prev.X) {
		// Same regime as the monolithic paths: from x_{·,·,0} = 0 start all
		// shards at the slot's demand-tight transportation optimum.
		if warm, err := feasibleWarmStart(in, t); err == nil {
			warmDense = warm
		}
	}
	for _, b := range s.blocks {
		b.beginSlot(o, warmDense, t, ctx)
	}
	for _, rb := range s.remotes {
		rb.BeginSlot(t, ctx)
	}
	s.coord.BeginSlot()
	for i := range s.blockSecs {
		s.blockSecs[i] = 0
	}

	var cres *shard.Result
	blockOuter, blockInner, zOuter, zInner := 0, 0, 0, 0
	coordIters := 0
	for {
		s.stats.Rounds++
		r, err := s.coord.Solve(ctx)
		if err != nil {
			return nil, nil, err
		}
		cres = r
		coordIters += r.Iters
		blockOuter += r.BlockOuter
		blockInner += r.BlockInner
		zOuter += r.ZOuter
		zInner += r.ZInner
		for i, sec := range r.BlockSeconds {
			s.blockSecs[i] += sec
		}
		// Pull remote post-round state into the mirrors before anything
		// below reads block iterates or duals. A block that failed to sync
		// reverts to its round-start state, so its contribution to the
		// assembled result must be re-derived: lost > 0 forces another
		// coordination round (bounded — a repeatedly failing block folds
		// back to local solving, after which its sync is trivially clean).
		lost := s.syncRemotes()
		added := 0
		if o.opts.Candidates > 0 {
			added = o.priceAndExpandShard(r)
		}
		if added == 0 && lost == 0 {
			break
		}
		s.stats.Expanded += added
		for si, b := range s.blocks {
			if b.dirty {
				b.rebind(o)
				if s.remotes != nil {
					// The candidate relayout changed the packed geometry;
					// the worker's copy is invalid until re-pushed.
					s.remotes[si].Invalidate()
				}
			}
		}
	}

	// Assemble the decision and the standard dual layout.
	for k := range s.xDense {
		s.xDense[k] = 0
	}
	nnz := 0
	for _, b := range s.blocks {
		b.scatterInto(s.xDense, in.J)
		copy(s.duals[b.rng.Lo:b.rng.Hi], b.thetaIter)
		nnz += b.cand.NNZ()
	}
	copy(s.duals[in.J:in.J+in.I], cres.RhoDuals)
	copy(s.duals[in.J+in.I:in.J+2*in.I], cres.NuDuals)
	s.stats.Restored += s.restoreCapacity(in)

	// Commit the warm state only now: a slot aborted above leaves the
	// coordinator prices and shard duals exactly as the last successful
	// slot wrote them, matching StepCtx's cancellation contract.
	s.coord.CommitSlot()
	for _, rb := range s.remotes {
		rb.Commit()
	}
	maxSec := 0.0
	for i, b := range s.blocks {
		copy(b.thetaWarm, b.thetaIter)
		if s.blockSecs[i] > maxSec {
			maxSec = s.blockSecs[i]
		}
	}

	s.stats.Slots++
	s.stats.CoordIters += coordIters
	s.stats.BlockOuter += blockOuter
	s.stats.BlockInner += blockInner
	s.stats.ZOuter += zOuter
	s.stats.ZInner += zInner
	s.stats.FinalNNZ = nnz
	s.stats.MaxResidual = cres.MaxResidual
	s.stats.MaxSeconds = maxSec

	s.res = alm.Result{
		Duals:      s.duals,
		Outer:      blockOuter + zOuter,
		InnerIters: blockInner + zInner,
		Converged:  cres.Converged,
	}
	return &s.res, s.xDense, nil
}

// syncRemotes pulls every remote block's post-round state into its
// mirror (no-op in-process), returning the number of blocks whose sync
// failed — their mirrors hold round-start state, so the caller must run
// another coordination round before assembling the result. It also
// moves fold transitions into the stats counter.
func (s *shardState) syncRemotes() int {
	lost := 0
	for si, rb := range s.remotes {
		if err := rb.SyncState(); err != nil {
			lost++
		}
		if rb.Dead() {
			if !s.remoteDead[si] {
				s.remoteDead[si] = true
				s.stats.RemoteFallbacks++
			}
		} else {
			s.remoteDead[si] = false
		}
	}
	return lost
}

// restoreCapacity projects the assembled schedule onto exact capacity
// feasibility, returning the total mass moved. When the coordination loop
// exhausts ShardMaxIters above ShardPrimalTol (inevitable when the block
// budget's feasibility noise exceeds the requested consensus tolerance),
// the assembled totals can exceed the consensus point's capacity-feasible
// totals by up to the final residual; left alone, that residual leaks
// into a Theorem-1 capacity violation on tight instances. Because
// projectDemand makes every demand row exact, Σ_i X_i equals the total
// workload, so the complement rows are equivalent to the capacity rows
// and restoring capacity alone restores full Theorem-1 feasibility. Each
// over-capacity cloud's row is scaled onto its capacity and every user's
// shaved mass moves to clouds with slack (lowest index first, keeping the
// user's demand row exact); deposits never push a cloud past capacity, so
// one pass in cloud order terminates with every total at or under
// capacity whenever aggregate slack exists. If the instance itself is
// over-subscribed the remainder is returned to its origin — demand stays
// exact and the conformance oracle reports the genuine infeasibility. On
// a converged slot the pass moves at most roundoff-level mass; it is
// deterministic and allocation-free either way.
func (s *shardState) restoreCapacity(in *model.Instance) float64 {
	nJ := in.J
	tot := s.restTot
	for i := 0; i < in.I; i++ {
		t := 0.0
		for _, v := range s.xDense[i*nJ : (i+1)*nJ] {
			t += v
		}
		tot[i] = t
	}
	moved := 0.0
	for i := 0; i < in.I; i++ {
		capi := in.Capacity[i]
		if tot[i] <= capi {
			continue
		}
		f := capi / tot[i]
		row := s.xDense[i*nJ : (i+1)*nJ]
		returned := 0.0
		for j, v := range row {
			if v <= 0 {
				continue
			}
			shave := v * (1 - f)
			row[j] = v * f
			for k := 0; k < in.I && shave > 0; k++ {
				if k == i || tot[k] >= in.Capacity[k] {
					continue
				}
				d := in.Capacity[k] - tot[k]
				if d > shave {
					d = shave
				}
				s.xDense[k*nJ+j] += d
				tot[k] += d
				moved += d
				shave -= d
			}
			if shave > 0 {
				row[j] += shave
				returned += shave
			}
		}
		tot[i] = capi + returned
	}
	return moved
}

// priceAndExpandShard is the sharded pricing pass: the same KKT
// stationarity test as priceAndExpand, evaluated with the assembled duals
// — θ from each user's owning shard, ρ/ν from the consensus subproblem —
// and the reconfiguration gradient at the assembled totals. Violated
// pruned pairs join their shard's candidate set and mark it for rebind.
func (o *OnlineApprox) priceAndExpandShard(r *shard.Result) int {
	in, s := o.inst, o.shrd
	nI, nJ := in.I, in.J
	eps1 := o.opts.Epsilon1
	for i := 0; i < nI; i++ {
		s.rcln[i] = o.obj.rcFac[i] * math.Log((r.Totals[i]+eps1)/(o.obj.prevTot[i]+eps1))
	}
	rho := r.RhoDuals
	nu := r.NuDuals
	rhoSum := 0.0
	for _, v := range rho {
		rhoSum += v
	}
	tol := o.opts.CandidateTol
	added := 0
	for _, b := range s.blocks {
		for i := 0; i < nI; i++ {
			row := o.obj.coef[i*nJ+b.rng.Lo : i*nJ+b.rng.Hi]
			base := s.rcln[i] - (rhoSum - rho[i]) + nu[i]
			for jl, c := range row {
				if b.builder.Contains(i, jl) {
					continue
				}
				if c+base-b.thetaIter[jl] < -tol*(1+math.Abs(c)) {
					b.builder.Add(i, jl)
					added++
					b.dirty = true
				}
			}
		}
	}
	return added
}

// shardBlock is one shard's local subproblem: its users' slice of P2 over
// a ragged candidate set, solved by ALM with only the demand rows (the
// coupling rows live in the coordinator). It implements shard.Block.
type shardBlock struct {
	st  *shardState
	rng shard.Range
	nJ  int

	builder *model.CandidateBuilder
	cand    model.CandidateSet
	groups  alm.Groups
	obj     p2ShardObjective
	ws      alm.Workspace
	sopts   alm.Options

	lower []float64 // packed zeros, grown on demand
	warm  []float64 // packed iterate: warm start in, solution out
	// xLocal is the block's I×nJ dense image, the bridge across candidate
	// relayouts: the slot's warm start scatters in, rebinds gather out.
	xLocal []float64
	// thetaIter are the working demand duals (θ'_j for the block's users,
	// warm across coordination iterations and pricing rounds); thetaWarm
	// is the committed copy promoted only on slot success.
	thetaIter []float64
	thetaWarm []float64
	// demand is the block users' workload slice (aliases in.Workload);
	// served is per-user scratch for the demand projection after each
	// block solve.
	demand []float64
	served []float64
	dirty  bool
}

var _ shard.Block = (*shardBlock)(nil)

// beginSlot seeds the block for slot t: the local warm image from the
// global warm point, the candidate sets (nearest clouds by attachment
// plus warm support, or the full grid when candidates are off), the
// packed bind, and the working duals from the committed warm duals.
func (b *shardBlock) beginSlot(o *OnlineApprox, warmDense []float64, t int, ctx context.Context) {
	in, s := o.inst, o.shrd
	nJ := in.J
	for i := 0; i < in.I; i++ {
		copy(b.xLocal[i*b.nJ:(i+1)*b.nJ], warmDense[i*nJ+b.rng.Lo:i*nJ+b.rng.Hi])
	}
	b.builder.Reset()
	for jl := 0; jl < b.nJ; jl++ {
		if s.nearest != nil {
			b.builder.AddUserSet(jl, s.nearest[in.Attach[t][b.rng.Lo+jl]])
		} else {
			b.builder.AddUserSet(jl, s.allClouds)
		}
	}
	b.builder.AddSupport(b.xLocal)
	b.builder.Build(&b.cand)
	b.bind(o)
	copy(b.thetaIter, b.thetaWarm)
	b.obj.hits, b.obj.misses = 0, 0
	b.sopts.Ctx = ctx
	b.dirty = false
}

// rebind relayouts the block after a candidate expansion: the current
// packed solution scatters into the local dense image, the builder
// rebuilds the CSR, and the packed buffers regather. The demand-dual
// dimension is per-user, so thetaIter carries over unchanged.
func (b *shardBlock) rebind(o *OnlineApprox) {
	for k := range b.xLocal {
		b.xLocal[k] = 0
	}
	for i := 0; i < b.obj.nI; i++ {
		base := i * b.nJ
		for k := b.cand.RowPtr[i]; k < b.cand.RowPtr[i+1]; k++ {
			b.xLocal[base+b.cand.Cols[k]] = b.warm[k]
		}
	}
	b.builder.Build(&b.cand)
	b.bind(o)
	b.dirty = false
}

// bind sizes the packed buffers for the current candidate set and gathers
// the slot's coefficients, previous decision, migration factors, and warm
// start from the dense objective state and the local dense image
// (mirroring bindSparse, restricted to the block's user columns).
func (b *shardBlock) bind(o *OnlineApprox) {
	in := o.inst
	do := o.obj
	so := &b.obj
	nnz := b.cand.NNZ()
	so.rowPtr, so.cols = b.cand.RowPtr, b.cand.Cols
	so.coef = growFloats(so.coef, nnz)
	so.prev = growFloats(so.prev, nnz)
	so.mgFac = growFloats(so.mgFac, nnz)
	b.lower = growFloats(b.lower, nnz) // stays all-zero
	b.warm = growFloats(b.warm, nnz)
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
	nJ := in.J
	for i := 0; i < in.I; i++ {
		base := i*nJ + b.rng.Lo
		lbase := i * b.nJ
		for k := b.cand.RowPtr[i]; k < b.cand.RowPtr[i+1]; k++ {
			jl := b.cand.Cols[k]
			so.coef[k] = do.coef[base+jl]
			so.prev[k] = do.prev[base+jl]
			so.mgFac[k] = do.mgFac[base+jl]
			b.warm[k] = b.xLocal[lbase+jl]
			if !so.fast {
				so.lastNum[k] = math.NaN() // invalidate the log cache
			}
		}
	}
	if so.fast {
		if so.fast32 {
			entropyInvDen32(so.invDen32, so.prev, so.eps2)
		} else {
			entropyInvDen(so.invDen, so.prev, so.eps2)
		}
	}
	b.groups.RowPtr, b.groups.Cols = b.cand.RowPtr, b.cand.Cols
}

// Solve implements shard.Block: one warm ALM solve of the block's demand-
// constrained subproblem under the coordinator's consensus penalty.
func (b *shardBlock) Solve(rho float64, target, totals []float64) (int, int, error) {
	nnz := b.cand.NNZ()
	b.obj.rho = rho
	b.obj.target = target
	prob := alm.Problem{Obj: &b.obj, N: nnz, Lower: b.lower[:nnz], Groups: &b.groups}
	sopts := b.sopts
	sopts.Workspace = &b.ws
	sopts.WarmX = b.warm[:nnz]
	sopts.WarmDuals = b.thetaIter
	res, err := alm.Solve(&prob, sopts)
	if err != nil {
		return 0, 0, err
	}
	copy(b.warm[:nnz], res.X)
	copy(b.thetaIter, res.Duals)
	b.projectDemand()
	b.totalsInto(totals, b.warm[:nnz])
	return res.Outer, res.InnerIters, nil
}

// projectDemand rescales every local user's column so its demand row
// holds exactly. Under a throughput-tuned (low-iteration) block budget
// the ALM solve can leave ~1e-3-relative demand shortfalls; the model
// layer's serve-all repair would then scale columns up AFTER the
// coordination loop certified its residual, silently pushing cloud loads
// past capacity. Projecting here instead keeps the repair a no-op on the
// sharded path, so the coordination primal residual is an honest bound
// on the assembled schedule's relative capacity violation. At tight
// budgets the demand rows already hold to ~1e-10 and the projection is a
// no-op up to floating-point roundoff.
func (b *shardBlock) projectDemand() {
	packedProjectDemand(b.warm[:b.cand.NNZ()], b.cand.Cols, b.demand, b.served)
}

// packedProjectDemand is projectDemand on a packed point: negatives clip
// to zero, then every user column scales onto its demand. served is
// per-user scratch. Shared with the worker-side ShardHost so the remote
// solve is operation-for-operation the local one.
func packedProjectDemand(x []float64, cols []int, demand, served []float64) {
	for jl := range served {
		served[jl] = 0
	}
	for k, v := range x {
		if v < 0 {
			x[k], v = 0, 0
		}
		served[cols[k]] += v
	}
	for jl, s := range served {
		if s > 0 {
			served[jl] = demand[jl] / s
		} else {
			served[jl] = 1
		}
	}
	for k := range x {
		x[k] *= served[cols[k]]
	}
}

// WarmTotalsInto implements shard.Block.
func (b *shardBlock) WarmTotalsInto(totals []float64) {
	b.totalsInto(totals, b.warm[:b.cand.NNZ()])
}

// totalsInto writes the packed point's per-cloud totals.
func (b *shardBlock) totalsInto(tot, x []float64) {
	for i := 0; i < b.obj.nI; i++ {
		s := 0.0
		for _, v := range x[b.cand.RowPtr[i]:b.cand.RowPtr[i+1]] {
			s += v
		}
		tot[i] = s
	}
}

// packedTotalsInto writes a packed point's per-cloud totals (the free
// form of totalsInto, shared with the worker-side ShardHost).
func packedTotalsInto(tot, x []float64, rowPtr []int) {
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for _, v := range x[rowPtr[i]:rowPtr[i+1]] {
			s += v
		}
		tot[i] = s
	}
}

// Spec implements shardrpc.Mirror: a deep copy of the block's current
// bind and warm state under the given wire identity. Called at spec
// pushes — once per (slot, relayout, worker restart) — so the copies are
// off every hot path.
func (b *shardBlock) Spec(id string, slot, gen int) *shardrpc.BlockSpec {
	nnz := b.cand.NNZ()
	so := &b.obj
	return &shardrpc.BlockSpec{
		ID:         id,
		Slot:       slot,
		Gen:        gen,
		NI:         so.nI,
		NJ:         b.nJ,
		Eps2:       so.eps2,
		FastMath:   so.fast && !so.fast32,
		FastMath32: so.fast32,
		RowPtr:     append([]int(nil), b.cand.RowPtr...),
		Cols:       append([]int(nil), b.cand.Cols[:nnz]...),
		Coef:       append([]float64(nil), so.coef[:nnz]...),
		Prev:       append([]float64(nil), so.prev[:nnz]...),
		MgFac:      append([]float64(nil), so.mgFac[:nnz]...),
		Warm:       append([]float64(nil), b.warm[:nnz]...),
		Theta:      append([]float64(nil), b.thetaIter...),
		Demand:     append([]float64(nil), b.demand...),
		Solver: shardrpc.SolverOptions{
			MaxOuter:      b.sopts.MaxOuter,
			InnerIters:    b.sopts.InnerIters,
			Penalty:       b.sopts.Penalty,
			PenaltyGrowth: b.sopts.PenaltyGrowth,
			FeasTol:       b.sopts.FeasTol,
			ObjTol:        b.sopts.ObjTol,
			DualTol:       b.sopts.DualTol,
		},
	}
}

// SetState implements shardrpc.Mirror: the worker's post-round iterate
// and demand duals overwrite the mirror's warm state.
func (b *shardBlock) SetState(x, theta []float64) error {
	nnz := b.cand.NNZ()
	if len(x) != nnz || len(theta) != b.nJ {
		return fmt.Errorf("core: shard state size mismatch: got %d vars and %d duals, want %d and %d",
			len(x), len(theta), nnz, b.nJ)
	}
	copy(b.warm[:nnz], x)
	copy(b.thetaIter, theta)
	return nil
}

var _ shardrpc.Mirror = (*shardBlock)(nil)

// scatterInto writes the packed solution into the global dense image.
func (b *shardBlock) scatterInto(dense []float64, nJ int) {
	for i := 0; i < b.obj.nI; i++ {
		base := i*nJ + b.rng.Lo
		for k := b.cand.RowPtr[i]; k < b.cand.RowPtr[i+1]; k++ {
			dense[base+b.cand.Cols[k]] = b.warm[k]
		}
	}
}

// p2ShardObjective evaluates a shard's slice of P2 plus the coordinator's
// consensus penalty over the packed candidate layout: the static and
// migration terms of the kept pairs — term-for-term the same kernels as
// p2SparseObjective — with the reconfiguration regularizer replaced by
// (ρ/2)·Σ_i (X_i − target_i)², whose gradient enters every element of
// cloud row i as ρ·(X_i − target_i) exactly where the monolithic path
// adds the reconfiguration gradient. Shards evaluate serially: the
// parallelism of the sharded path is across shards, not within one.
type p2ShardObjective struct {
	nI     int
	rowPtr []int
	cols   []int

	coef  []float64 // packed weighted static coefficients
	prev  []float64 // packed x'_{ij}
	mgFac []float64 // packed wMg·b_i/τ_ij

	eps2   float64
	rho    float64   // consensus penalty, set per Solve
	target []float64 // per-cloud targets, set per Solve

	// hits/misses count log-cache outcomes on the exact path; plain
	// scalars suffice because the block evaluates single-threaded.
	hits, misses int64

	// Fast-math tier (see p2Objective): packed reciprocals and log
	// scratch, refilled by bind each relayout.
	fast     bool
	fast32   bool
	invDen   []float64
	ratio    []float64
	invDen32 []float32
	ratio32  []float32

	lastNum []float64 // packed log-cache keys (see p2Objective)
	lastLg2 []float64
}

// Eval implements fista.Objective.
func (o *p2ShardObjective) Eval(x, grad []float64) float64 {
	f := 0.0
	for i := 0; i < o.nI; i++ {
		f += o.evalRow(i, x, grad)
	}
	return f
}

// evalRow computes cloud i's slice of the block objective and gradient.
// See p2SparseObjective.evalRow; only the cloud-total term differs.
func (o *p2ShardObjective) evalRow(i int, x, grad []float64) float64 {
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
		o.hits += hits
		o.misses += misses
		d := s - o.target[i]
		return f + 0.5*o.rho*d*d
	}
	s := 0.0
	for _, v := range row {
		s += v
	}
	d := s - o.target[i]
	f := 0.5 * o.rho * d * d
	f, hits, misses := entropyRowGrad(row, coef, prev, mgFac, lastNum, lastLg2,
		grad[lo:hi], o.eps2, f, o.rho*d)
	o.hits += hits
	o.misses += misses
	return f
}

// evalRowFast is evalRow on the batch-kernel tier; see
// p2SparseObjective.evalRowFast.
func (o *p2ShardObjective) evalRowFast(i int, x, grad []float64) float64 {
	lo, hi := o.rowPtr[i], o.rowPtr[i+1]
	row := x[lo:hi]
	coef := o.coef[lo:hi]
	mgFac := o.mgFac[lo:hi]
	if o.fast32 {
		ratio := o.ratio32[lo:hi]
		s := entropyRatioPass32(row, o.invDen32[lo:hi], ratio, o.eps2)
		logBatch32(ratio, ratio)
		d := s - o.target[i]
		if grad == nil {
			f := entropyFastValue32(row, coef, mgFac, ratio, o.eps2)
			return f + 0.5*o.rho*d*d
		}
		f := 0.5 * o.rho * d * d
		return entropyFastGrad32(row, coef, mgFac, ratio,
			grad[lo:hi], o.eps2, f, o.rho*d)
	}
	ratio := o.ratio[lo:hi]
	s := entropyRatioPass(row, o.invDen[lo:hi], ratio, o.eps2)
	logBatch(ratio, ratio)
	d := s - o.target[i]
	if grad == nil {
		f := entropyFastValue(row, coef, mgFac, ratio, o.eps2)
		return f + 0.5*o.rho*d*d
	}
	f := 0.5 * o.rho * d * d
	return entropyFastGrad(row, coef, mgFac, ratio,
		grad[lo:hi], o.eps2, f, o.rho*d)
}

// logCacheTotals returns the cache counters accumulated since beginSlot.
func (o *p2ShardObjective) logCacheTotals() (hits, misses int64) {
	return o.hits, o.misses
}

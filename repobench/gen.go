package main

import (
	"fmt"
	"math"
	"math/rand"

	"edgealloc/internal/model"
)

// The workload generator. Everything a run feeds the program is drawn
// here from the --seed argument, so the same seed gives byte-identical
// inputs and the program never sees the seed itself.

// mix derives an independent stream seed from the run seed and a list of
// labels (workload, episode, session, generation) with a splitmix64
// finalizer, so neighbouring labels do not give correlated streams.
func mix(seed int64, labels ...int64) int64 {
	z := uint64(seed)
	for _, l := range labels {
		z ^= uint64(l) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// mobility describes how a slot differs from the one before it.
type mobility struct {
	// Churn is the exact fraction of users that re-attach each slot:
	// round(Churn·J) users drawn at random without replacement, each
	// moved to a different cloud drawn uniformly.
	Churn float64
	// Drift > 0 makes operation prices a multiplicative random walk of
	// ±Drift per slot; Drift = 0 redraws every price each slot.
	Drift float64
}

// movers is the number of users that re-attach each slot.
func (m mobility) movers(J int) int { return int(math.Round(m.Churn * float64(J))) }

// geometry draws the slot-independent part of an instance. The sites
// stream places I clouds on a 100×100 km plane with quadratic-in-distance
// inter-cloud delays and draws their capacity factors and their
// reconfiguration and migration prices; the users stream draws the J
// workloads. Capacities are ~1.2–2× the mean cloud load.
func geometry(sites, users *rand.Rand, I, J int) *model.Instance {
	in := &model.Instance{I: I, J: J, WOp: 1, WSq: 1, WRc: 1, WMg: 1}
	xs, ys := make([]float64, I), make([]float64, I)
	for i := range xs {
		xs[i], ys[i] = 100*sites.Float64(), 100*sites.Float64()
	}
	in.InterDelay = make([][]float64, I)
	for i := range in.InterDelay {
		in.InterDelay[i] = make([]float64, I)
		for k := range in.InterDelay[i] {
			dx, dy := xs[i]-xs[k], ys[i]-ys[k]
			in.InterDelay[i][k] = 0.04 * (dx*dx + dy*dy) / 100
		}
	}
	in.Capacity = make([]float64, I)
	in.ReconfPrice = make([]float64, I)
	in.MigOutPrice = make([]float64, I)
	in.MigInPrice = make([]float64, I)
	for i := 0; i < I; i++ {
		in.Capacity[i] = 1.2 + 0.8*sites.Float64()
		in.ReconfPrice[i] = 0.5 + sites.Float64()
		in.MigOutPrice[i] = 0.2 + 0.6*sites.Float64()
		in.MigInPrice[i] = 0.2 + 0.6*sites.Float64()
	}
	in.Workload = make([]float64, J)
	total := 0.0
	for j := range in.Workload {
		in.Workload[j] = 0.5 + 2*users.Float64()
		total += in.Workload[j]
	}
	for i := range in.Capacity {
		in.Capacity[i] *= total / float64(I)
	}
	return in
}

// slotData is what one slot reveals: prices, attachments, access delays.
type slotData struct {
	OpPrice     []float64
	Attach      []int
	AccessDelay []float64
}

// stream draws T slots of mobility for an instance's geometry. Slot 0
// attaches every user uniformly; each later slot moves exactly
// m.movers(J) users and keeps everyone else where they were.
func stream(rng *rand.Rand, I, J, T int, m mobility) []slotData {
	slots := make([]slotData, T)
	perm := make([]int, J)
	for j := range perm {
		perm[j] = j
	}
	n := m.movers(J)
	for t := range slots {
		s := slotData{
			OpPrice:     make([]float64, I),
			Attach:      make([]int, J),
			AccessDelay: make([]float64, J),
		}
		if t == 0 {
			for i := range s.OpPrice {
				s.OpPrice[i] = 0.5 + rng.Float64()
			}
			for j := range s.Attach {
				s.Attach[j] = rng.Intn(I)
				s.AccessDelay[j] = 0.5 * rng.Float64()
			}
			slots[t] = s
			continue
		}
		prev := slots[t-1]
		for i := range s.OpPrice {
			if m.Drift > 0 {
				s.OpPrice[i] = prev.OpPrice[i] * (1 + m.Drift*(2*rng.Float64()-1))
			} else {
				s.OpPrice[i] = 0.5 + rng.Float64()
			}
		}
		copy(s.Attach, prev.Attach)
		copy(s.AccessDelay, prev.AccessDelay)
		// A partial Fisher–Yates shuffle picks n distinct movers.
		for k := 0; k < n; k++ {
			r := k + rng.Intn(J-k)
			perm[k], perm[r] = perm[r], perm[k]
			j := perm[k]
			to := rng.Intn(I - 1)
			if to >= s.Attach[j] {
				to++
			}
			s.Attach[j] = to
			s.AccessDelay[j] = 0.5 * rng.Float64()
		}
		slots[t] = s
	}
	return slots
}

// withSlots fills an instance's time-major arrays from a stream.
func withSlots(in *model.Instance, slots []slotData) {
	in.T = len(slots)
	in.OpPrice = make([][]float64, in.T)
	in.Attach = make([][]int, in.T)
	in.AccessDelay = make([][]float64, in.T)
	for t, s := range slots {
		in.OpPrice[t], in.Attach[t], in.AccessDelay[t] = s.OpPrice, s.Attach, s.AccessDelay
	}
}

// greedyInit places each user whole on its slot-0 cloud while capacity
// lasts, spilling to the nearest cloud with room. It gives the solver
// workloads a sparse mid-stream starting placement, so slot 0 is an
// ordinary warm slot instead of a full transportation solve.
func greedyInit(in *model.Instance) {
	free := append([]float64(nil), in.Capacity...)
	x := model.NewAlloc(in.I, in.J)
	for j := 0; j < in.J; j++ {
		at, need := in.Attach[0][j], in.Workload[j]
		for need > 0 {
			best := at
			if free[at] <= 0 {
				best = -1
				for i := range free {
					if free[i] > 0 && (best < 0 || in.InterDelay[at][i] < in.InterDelay[at][best]) {
						best = i
					}
				}
			}
			amt := math.Min(need, free[best])
			x.X[best*in.J+j] += amt
			free[best] -= amt
			need -= amt
		}
	}
	in.Init = &x
}

// siteSeed fixes the deployment of the solve-* workloads: every run has
// the same cloud sites, prices of reconfiguration and migration, and user
// workloads, and the run's seed draws where users attach, who moves, and
// the operation prices. Which users and sites a deployment has is not
// what the benchmark varies, and holding them fixed narrows the spread of
// the solver's coordination rounds per episode across seeds.
const siteSeed = 20170605

// solveInstance draws the instance of one solve-* episode.
func solveInstance(seed int64, I, J, T int, m mobility) (*model.Instance, error) {
	site := rand.New(rand.NewSource(siteSeed))
	in := geometry(site, site, I, J)
	rng := rand.New(rand.NewSource(seed))
	withSlots(in, stream(rng, I, J, T, m))
	greedyInit(in)
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("generating I=%d J=%d T=%d: %w", I, J, T, err)
	}
	return in, nil
}

// sessionStream draws one serve-stream session: the skeleton the
// session is created from (T = 0, no time-major data, zero pre-horizon
// allocation) and the slots its advances reveal.
func sessionStream(seed int64, I, J, T int, m mobility) (*model.Instance, []slotData) {
	rng := rand.New(rand.NewSource(seed))
	skel := geometry(rng, rng, I, J)
	return skel, stream(rng, I, J, T, m)
}

// fullInstance is the replay form of a streamed session: its skeleton
// with every slot filled in, as the server holds it once the horizon is
// complete.
func fullInstance(skel *model.Instance, slots []slotData) (*model.Instance, error) {
	in := *skel
	withSlots(&in, slots)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

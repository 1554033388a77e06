package perf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
)

// The churn tier measures the flagship sharded configuration as a
// function of mobility intensity. SyntheticInstance re-draws every
// operation price and re-attaches ~30% of users per slot; ChurnInstance
// keeps the same geometry but makes the churn rate an exact input and
// lets prices drift smoothly, which is how a real slot sequence behaves
// (the Rome taxi trace churns a few percent per minute over
// slowly-moving spot prices).

// churnRates is the mobility sweep: the paper-realistic low end, the
// taxi-trace band, heavy mobility, and the 100% edge.
var churnRates = []float64{0.01, 0.05, 0.2, 1}

// ChurnInstance builds the controlled-churn synthetic instance: the
// SyntheticInstance geometry (plane-derived delays, ~1.6x-mean
// capacities, sparse greedy pre-horizon placement) with two differences.
// Operation prices follow a ±2% multiplicative per-slot random walk
// instead of being re-drawn, and attachments move in an exact rotating
// window — ⌈churn·J⌉ users re-attach per slot, everyone else stays —
// so the measured mobility equals the churn parameter by construction.
func ChurnInstance(I, J, T int, churn float64, seed int64) (*model.Instance, error) {
	if churn < 0 || churn > 1 {
		return nil, fmt.Errorf("perf: churn %g outside [0, 1]", churn)
	}
	in, err := SyntheticInstance(I, J, T, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))

	for t := 1; t < T; t++ {
		for i := 0; i < I; i++ {
			in.OpPrice[t][i] = in.OpPrice[t-1][i] * (1 + 0.02*(2*rng.Float64()-1))
		}
	}

	movers := int(math.Ceil(churn * float64(J)))
	for j := 0; j < J; j++ {
		in.AccessDelay[0][j] = 0.5 * rng.Float64()
	}
	for t := 1; t < T; t++ {
		copy(in.Attach[t], in.Attach[t-1])
		copy(in.AccessDelay[t], in.AccessDelay[t-1])
		for m := 0; m < movers; m++ {
			j := ((t-1)*movers + m) % J
			in.Attach[t][j] = rng.Intn(I)
			in.AccessDelay[t][j] = 0.5 * rng.Float64()
		}
	}

	// The greedy pre-horizon placement keyed on slot-0 attachments is
	// unchanged and Validate re-checks the rewritten trace.
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("perf: churn instance I=%d J=%d T=%d churn=%g: %w", I, J, T, churn, err)
	}
	return in, nil
}

// StepChurn returns the benchmark kernel for one churn rate: the
// sharded candidate path at S = 4 (shardOptions), the fastest recorded
// StepShard point on the flagship grid.
func StepChurn(size ScaleSize, churn float64) func(*testing.B) {
	return func(b *testing.B) {
		in, err := ChurnInstance(size.I, size.J, scaleHorizon, churn, scaleSeed)
		if err != nil {
			b.Fatal(err)
		}
		stepPasses(b, in, shardOptions(4))
	}
}

// ChurnSpecName names one churn-tier kernel. The "/full" suffix keeps
// the names of the recorded BENCH_solver.json baselines.
func ChurnSpecName(size ScaleSize, churn float64) string {
	return fmt.Sprintf("StepChurn/I=%d,J=%d/c=%g%%/full", size.I, size.J, churn*100)
}

// ChurnSpecs lists the churn tier: one kernel per mobility rate at the
// flagship grid point.
func ChurnSpecs() []Spec {
	size := ScaleSize{I: 50, J: 5000}
	specs := make([]Spec, 0, len(churnRates))
	for _, churn := range churnRates {
		specs = append(specs, Spec{
			Name:  ChurnSpecName(size, churn),
			Bench: StepChurn(size, churn),
		})
	}
	return specs
}

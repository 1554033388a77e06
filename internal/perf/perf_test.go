package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The solver microbenchmarks of the performance trajectory. Run with
//
//	go test -bench=. -benchmem ./internal/perf/
//
// or dump machine-readable numbers with `edgebench -benchjson`.

func BenchmarkFISTASolve(b *testing.B)       { FISTASolve(b) }
func BenchmarkALMSolve(b *testing.B)         { ALMSolve(b) }
func BenchmarkOnlineApproxStep(b *testing.B) { OnlineApproxStep(b) }

// BenchmarkStepScale exposes the scaling tier to `go test -bench`; use
// -bench 'StepScale/I=25,J=1000' to pick one grid point. The tier takes
// tens of minutes end to end, so -short skips it.
func BenchmarkStepScale(b *testing.B) {
	if testing.Short() {
		b.Skip("scaling tier takes tens of minutes; skipped under -short")
	}
	for _, s := range ScaleSpecs() {
		b.Run(strings.TrimPrefix(s.Name, "StepScale/"), s.Bench)
	}
}

// BenchmarkNumKernel exposes the fast-math kernel family; use
// -bench 'NumKernel/LogBatch$' to pick one kernel.
func BenchmarkNumKernel(b *testing.B) {
	for _, s := range NumKernelSpecs() {
		b.Run(strings.TrimPrefix(s.Name, "NumKernel/"), s.Bench)
	}
}

// BenchmarkStepSparse exposes the candidate-size sweep; use
// -bench 'StepSparse/I=50,J=5000/k=8' to pick one width.
func BenchmarkStepSparse(b *testing.B) {
	if testing.Short() {
		b.Skip("candidate sweep runs at the flagship size; skipped under -short")
	}
	for _, s := range SparseSpecs() {
		b.Run(strings.TrimPrefix(s.Name, "StepSparse/"), s.Bench)
	}
}

// BenchmarkStepShard exposes the sharded-coordination tier; use
// -bench 'StepShard/I=50,J=5000/S=4' to pick one shard count.
func BenchmarkStepShard(b *testing.B) {
	if testing.Short() {
		b.Skip("sharded tier runs at the flagship and headroom sizes; skipped under -short")
	}
	for _, s := range ShardSpecs() {
		b.Run(strings.TrimPrefix(s.Name, "StepShard/"), s.Bench)
	}
}

// BenchmarkStepDist exposes the distributed-coordination tier; use
// -bench 'StepDist/I=50,J=5000/rpc' to pick one variant.
func BenchmarkStepDist(b *testing.B) {
	if testing.Short() {
		b.Skip("distributed tier runs at the flagship and headroom sizes; skipped under -short")
	}
	for _, s := range DistSpecs() {
		b.Run(strings.TrimPrefix(s.Name, "StepDist/"), s.Bench)
	}
}

// BenchmarkStepChurn exposes the churn tier; use
// -bench 'StepChurn/I=50,J=5000/c=5%/full' to pick one point.
func BenchmarkStepChurn(b *testing.B) {
	if testing.Short() {
		b.Skip("churn tier runs at the flagship size; skipped under -short")
	}
	for _, s := range ChurnSpecs() {
		b.Run(strings.TrimPrefix(s.Name, "StepChurn/"), s.Bench)
	}
}

func TestSpecsAreNamedAndRunnable(t *testing.T) {
	base := 3 + len(NumKernelSpecs())
	if n := len(Specs(false)); n != base {
		t.Fatalf("Specs(false) = %d kernels, want the %d base kernels", n, base)
	}
	specs := Specs(true)
	want := base + len(ScaleSpecs()) + len(SparseSpecs()) + len(ShardSpecs()) + len(DistSpecs()) + len(churnRates)
	if len(specs) != want {
		t.Fatalf("Specs(true) = %d kernels, want %d", len(specs), want)
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" || s.Bench == nil {
			t.Errorf("spec %+v incomplete", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate kernel name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestDiffFlagsRegressionsOnly(t *testing.T) {
	base := []Record{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Gone", NsPerOp: 100},
		{Name: "AllocSmall", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "AllocBig", NsPerOp: 100, AllocsPerOp: 100},
		{Name: "AllocOK", NsPerOp: 100, AllocsPerOp: 100},
	}
	cur := []Record{
		{Name: "A", NsPerOp: 130}, // +30%: regression at the 25% gate
		{Name: "B", NsPerOp: 120}, // +20%: within the gate
		{Name: "New", NsPerOp: 50},
		{Name: "AllocSmall", NsPerOp: 100, AllocsPerOp: 3}, // within the 2-alloc floor
		{Name: "AllocBig", NsPerOp: 100, AllocsPerOp: 130}, // +30 allocs: past base/4
		{Name: "AllocOK", NsPerOp: 100, AllocsPerOp: 120},  // +20 allocs: within base/4
	}
	rows := Diff(base, cur)
	if len(rows) != 6 {
		t.Fatalf("Diff returned %d rows, want 6 (retired kernels dropped)", len(rows))
	}
	if rows[2].HasBase {
		t.Errorf("new kernel %q should have no baseline", rows[2].Name)
	}
	regs := Regressions(rows, 0.25)
	if len(regs) != 2 || regs[0].Name != "A" || regs[1].Name != "AllocBig" {
		t.Fatalf("Regressions = %+v, want exactly kernels A and AllocBig", regs)
	}
	if missing := MissingBaselines(rows); len(missing) != 1 || missing[0] != "New" {
		t.Fatalf("MissingBaselines = %v, want exactly [New]", missing)
	}
	var buf bytes.Buffer
	WriteDiffTable(&buf, rows)
	for _, want := range []string{"A", "new", "+30.0%", "cur allocs"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("diff table missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMissingRecordsGatesTrajectoryCompleteness pins the gate that
// catches a bench tier whose baselines were never recorded: the
// everyday bench-diff run re-measures the base kernels only, so the
// committed dump must carry a record for every defined kernel.
func TestMissingRecordsGatesTrajectoryCompleteness(t *testing.T) {
	specs := Specs(true)
	base := make([]Record, 0, len(specs))
	for _, s := range specs {
		base = append(base, Record{Name: s.Name, NsPerOp: 1})
	}
	if missing := MissingRecords(base, specs); len(missing) != 0 {
		t.Fatalf("complete trajectory flagged: %v", missing)
	}
	// Drop the StepDist pair: exactly those names must surface.
	var pruned []Record
	for _, r := range base {
		if !strings.HasPrefix(r.Name, "StepDist/") {
			pruned = append(pruned, r)
		}
	}
	missing := MissingRecords(pruned, specs)
	if len(missing) != len(DistSpecs()) {
		t.Fatalf("MissingRecords = %v, want the %d StepDist kernels", missing, len(DistSpecs()))
	}
	for _, name := range missing {
		if !strings.HasPrefix(name, "StepDist/") {
			t.Fatalf("unexpected missing kernel %q", name)
		}
	}
}

func TestReadJSONRoundTrips(t *testing.T) {
	recs := []Record{{Name: "X", Iterations: 3, NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 64}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != recs[0] {
		t.Errorf("ReadJSON round trip = %+v, want %+v", back, recs)
	}
}

func TestSyntheticInstanceDeterministic(t *testing.T) {
	a, err := SyntheticInstance(7, 30, 4, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticInstance(7, 30, 4, 123)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < a.T; t0++ {
		for j := range a.Attach[t0] {
			if a.Attach[t0][j] != b.Attach[t0][j] {
				t.Fatalf("Attach[%d][%d] differs between identical seeds", t0, j)
			}
		}
	}
	for i := range a.Capacity {
		if a.Capacity[i] != b.Capacity[i] {
			t.Fatalf("Capacity[%d] differs between identical seeds", i)
		}
	}
	if a.Init == nil {
		t.Fatal("synthetic instance must carry a pre-horizon allocation")
	}
}

func TestChurnInstanceExactRate(t *testing.T) {
	for _, churn := range []float64{0, 0.05, 0.2, 1} {
		in, err := ChurnInstance(6, 40, 5, churn, 99)
		if err != nil {
			t.Fatalf("churn %g: %v", churn, err)
		}
		movers := int(math.Ceil(churn * 40))
		for tt := 1; tt < in.T; tt++ {
			switched := 0
			for j := 0; j < in.J; j++ {
				if in.Attach[tt][j] != in.Attach[tt-1][j] {
					switched++
				}
			}
			// Movers may re-draw their current cloud, so switches are at
			// most the mover count — and at churn 0 exactly zero.
			if switched > movers {
				t.Errorf("churn %g slot %d: %d switches > %d movers", churn, tt, switched, movers)
			}
			if churn == 0 && switched != 0 {
				t.Errorf("zero churn slot %d: %d switches", tt, switched)
			}
		}
		// Prices drift, never jump: ±2% per slot.
		for tt := 1; tt < in.T; tt++ {
			for i := 0; i < in.I; i++ {
				r := in.OpPrice[tt][i] / in.OpPrice[tt-1][i]
				if r < 0.98-1e-12 || r > 1.02+1e-12 {
					t.Errorf("slot %d cloud %d: price ratio %g outside ±2%%", tt, i, r)
				}
			}
		}
	}
	if _, err := ChurnInstance(3, 5, 3, 1.5, 1); err == nil {
		t.Error("ChurnInstance accepted churn > 1")
	}
	a, err := ChurnInstance(5, 20, 4, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnInstance(5, 20, 4, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range a.Attach {
		for j := range a.Attach[tt] {
			if a.Attach[tt][j] != b.Attach[tt][j] {
				t.Fatalf("Attach[%d][%d] differs between identical seeds", tt, j)
			}
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	recs := []Record{{Name: "X", Iterations: 3, NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 64}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != recs[0] {
		t.Errorf("round trip = %+v, want %+v", back, recs)
	}
	if !strings.Contains(buf.String(), "allocs_per_op") {
		t.Errorf("JSON missing allocs_per_op key: %s", buf.String())
	}
}

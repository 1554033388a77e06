package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"edgealloc/internal/route"
)

func TestSameSeedSameInstance(t *testing.T) {
	enc := func(seed int64) []byte {
		in, err := solveInstance(seed, 8, 300, 5, churnSpec.mob)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(mix(7, 1, 0)), enc(mix(7, 1, 0))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different instances")
	}
	if bytes.Equal(a, enc(mix(8, 1, 0))) {
		t.Fatal("different seeds gave the same instance")
	}

	s1, _ := newSession(streamSpec, 7, 3, 2)
	s2, _ := newSession(streamSpec, 7, 3, 2)
	if !bytes.Equal(s1.inst, s2.inst) || len(s1.bodies) != len(s2.bodies) {
		t.Fatal("same seed gave different sessions")
	}
	for k := range s1.bodies {
		if !bytes.Equal(s1.bodies[k], s2.bodies[k]) {
			t.Fatalf("slot %d request differs for the same seed", k)
		}
	}
}

func TestChurnFractionExact(t *testing.T) {
	for _, tc := range []struct {
		J     int
		churn float64
		want  int
	}{
		{5000, 0.02, 100},
		{5000, 0.30, 1500},
		{6, 0.30, 2},
		{333, 0.02, 7},
	} {
		in, err := solveInstance(11, 10, tc.J, 6, mobility{Churn: tc.churn, Drift: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s < in.T; s++ {
			moved := 0
			for j := 0; j < in.J; j++ {
				if in.Attach[s][j] != in.Attach[s-1][j] {
					moved++
				}
			}
			if moved != tc.want {
				t.Fatalf("J=%d churn=%g slot %d: %d users moved, want exactly %d", tc.J, tc.churn, s, moved, tc.want)
			}
		}
	}
}

// The movers are drawn at random, not as a window: over a few slots of
// a 2%-churn stream, they must not form a contiguous run of users.
func TestChurnMoversScattered(t *testing.T) {
	in, err := solveInstance(3, 10, 1000, 2, mobility{Churn: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := in.J, -1
	for j := 0; j < in.J; j++ {
		if in.Attach[1][j] != in.Attach[0][j] {
			lo, hi = min(lo, j), max(hi, j)
		}
	}
	if hi-lo < 100 {
		t.Fatalf("the 20 movers span users %d..%d, a contiguous window", lo, hi)
	}
}

func TestPercentileSupport(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = float64(n - k) // reversed, so the helper must sort
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{40, 0.75, true, 30},
		{39, 0.75, false, 0},
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{200, 0.95, true, 190},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children cover [10, 50); a disjoint one [60, 70).
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		// A grandchild counts against its parent, not the root.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
		// A child that outlives its parent is clipped to it.
		{ID: 6, Parent: 4, Name: "e", Start: 65, End: 90},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 5, 5: 20, 6: 25} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName(spans)["root"]; len(got) != 1 || got[0] != 50e-6 {
		t.Errorf("selfByName root = %v, want [5e-05] ms", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	if id := r.begin(1, 0, "x"); id != 0 {
		t.Fatalf("nil recorder opened span %d", id)
	}
	r.end(0, nil)
	if r.closed() != nil {
		t.Fatal("nil recorder kept spans")
	}
	rec := newRecorder()
	a := rec.begin(9, 0, "a")
	b := rec.beginAt(9, a, "b", time.Now().Add(-time.Millisecond))
	rec.end(b, map[string]float64{"k": 1})
	if got := rec.closed(); len(got) != 1 || got[0].Name != "b" || got[0].Parent != a || got[0].Trace != 9 {
		t.Fatalf("closed spans = %+v, want only b under a", got)
	}
}

// toySolve is a solve workload small enough for a unit test.
var toySolve = solveSpec{tag: 1, I: 5, J: 40, T: 13, mob: mobility{Churn: 0.3}, minEpisodes: 4, warmup: 2, tailQ: 0.75}

func TestSmokeSolve(t *testing.T) {
	for _, rec := range []*recorder{nil, newRecorder()} {
		rep, err := solveRun(toySolve, 1, 0.01, rec)
		if err != nil {
			t.Fatal(err)
		}
		rep.Workload = "toy"
		if !rep.correct() {
			t.Fatalf("checks failed: %+v", rep.Checks)
		}
		names := endToEndNames
		if rec != nil {
			names = perLayerNames
		}
		if _, err := rep.resultLine(names); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4-second open loop")
	}
	toy := streamSpec
	toy.I, toy.J, toy.T = 3, 2, 4
	toy.Population = 4
	toy.FixedRate = 120
	toy.TailQ = 0.9
	toy.Warmup = 200 * time.Millisecond
	toy.SetupReps = 2
	toy.QualityGens = 2
	for _, rec := range []*recorder{nil, newRecorder()} {
		rep, err := serveRun(toy, 1, 2, rec)
		if err != nil {
			t.Fatal(err)
		}
		rep.Workload = "toy"
		if !rep.correct() {
			t.Fatalf("checks failed: %+v", rep.Checks)
		}
		names := endToEndNames
		if rec != nil {
			names = perLayerNames
		}
		if _, err := rep.resultLine(names); err != nil {
			t.Fatal(err)
		}
	}
}

// BENCHMARK.json at the repository root lists the metrics the final
// line carries; keep the two in step.
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the benchmark %d", what, len(got), len(want))
		}
		for k := range want {
			if got[k].Name != want[k] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, benchmark %q", what, k, got[k].Name, want[k])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndNames)
	same("per_layer", doc.PerLayer, perLayerNames)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", w.Name)
		}
	}
}

func TestAssignPinsConnectionToReplica(t *testing.T) {
	replicas := []string{"http://127.0.0.1:40001", "http://127.0.0.1:40002"}
	for k := 0; k < 6; k++ {
		s, err := newSession(streamSpec, 1, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.assign(streamSpec, replicas); err != nil {
			t.Fatal(err)
		}
		if got, want := route.Owner(replicas, s.id), replicas[k%streamSpec.Conns]; got != want {
			t.Errorf("session %d (%s) placed on %s, want %s", k, s.id, got, want)
		}
	}
}

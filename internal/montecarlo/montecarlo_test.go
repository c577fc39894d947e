package montecarlo

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/transient"
)

func testGrid() *mna.System {
	sys, err := mna.Build(testNetlist(), mna.DefaultSpec())
	if err != nil {
		panic(err)
	}
	return sys
}

// testNetlist is a 4x4 mesh with one pad and one pulsed drain, every
// element in region 0.
func testNetlist() *netlist.Netlist {
	id := func(r, c int) int { return r*4 + c }
	nl := &netlist.Netlist{NumNodes: 16}
	n := 0
	addR := func(a, b int) {
		nl.Resistors = append(nl.Resistors, netlist.Resistor{
			Name: string(rune('a' + n%26)), A: a, B: b, Ohms: 1.5, OnDie: true})
		n++
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if c < 3 {
				addR(id(r, c), id(r, c+1))
			}
			if r < 3 {
				addR(id(r, c), id(r+1, c))
			}
		}
	}
	for i := 0; i < 16; i++ {
		nl.Caps = append(nl.Caps, netlist.Capacitor{
			Name: "c", A: i, B: netlist.Ground, Farads: 2e-11, GateFrac: 0.4})
	}
	nl.Sources = []netlist.CurrentSource{
		{Name: "s", A: id(3, 3), Wave: &netlist.Pulse{
			Low: 0.001, High: 0.03, Delay: 1e-10, Rise: 1e-10, Width: 3e-10, Fall: 1e-10, Period: 1e-9,
		}, LeffSens: 1, Region: 0},
	}
	nl.Pads = []netlist.Pad{{Name: "p", Node: 0, VDD: 1.2, Rpin: 0.1, OnDie: true}}
	return nl
}

func TestRunBasicStatistics(t *testing.T) {
	sys := testGrid()
	res, err := Run(sys, Options{Samples: 300, Step: 5e-11, Steps: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesRun != 300 {
		t.Errorf("samples run %d", res.SamplesRun)
	}
	// Voltages must be physical: between 0 and VDD, with nonzero drops
	// and nonzero variance at loaded nodes.
	for s := 0; s <= 20; s++ {
		for i := 0; i < sys.N; i++ {
			v := res.Mean[s][i]
			if v <= 0 || v > 1.2+1e-9 {
				t.Fatalf("unphysical mean voltage %g at step %d node %d", v, s, i)
			}
			if res.Variance[s][i] < 0 {
				t.Fatalf("negative variance at step %d node %d", s, i)
			}
		}
	}
	// The far corner node (15) sees the load: its drop and variance
	// must be the largest in the grid at the pulse peak.
	peakStep := 8 // 4e-10 ≈ pulse top
	maxVarNode := 0
	for i := range res.Variance[peakStep] {
		if res.Variance[peakStep][i] > res.Variance[peakStep][maxVarNode] {
			maxVarNode = i
		}
	}
	if maxVarNode != 15 {
		t.Errorf("max variance at node %d, want 15 (the loaded corner)", maxVarNode)
	}
}

func TestReproducibleBySeed(t *testing.T) {
	sys := testGrid()
	opt := Options{Samples: 50, Step: 5e-11, Steps: 10, Seed: 7}
	a, err := Run(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Mean {
		for i := range a.Mean[s] {
			if a.Mean[s][i] != b.Mean[s][i] {
				t.Fatalf("means differ at step %d node %d", s, i)
			}
		}
	}
	opt.Seed = 8
	c, err := Run(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a.Mean {
		for i := range a.Mean[s] {
			if a.Mean[s][i] != c.Mean[s][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds gave identical results")
	}
}

func TestTraces(t *testing.T) {
	sys := testGrid()
	res, err := Run(sys, Options{
		Samples: 10, Step: 5e-11, Steps: 5, Seed: 3, TrackNodes: []int{15, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 10 {
		t.Fatalf("traces for %d samples", len(res.Traces))
	}
	for k := range res.Traces {
		if len(res.Traces[k]) != 6 {
			t.Fatalf("sample %d has %d steps", k, len(res.Traces[k]))
		}
		for s := range res.Traces[k] {
			if len(res.Traces[k][s]) != 2 {
				t.Fatalf("trace width %d", len(res.Traces[k][s]))
			}
			// Node 15 (loaded corner) always at or below node 0 (pad).
			if res.Traces[k][s][0] > res.Traces[k][s][1]+1e-12 {
				t.Errorf("corner voltage above pad voltage at sample %d step %d", k, s)
			}
		}
	}
}

func TestLatinHypercubeReducesMeanError(t *testing.T) {
	sys := testGrid()
	// With LHS the sample mean of a near-linear response converges much
	// faster; compare the estimated mean against a large plain-MC
	// reference.
	ref, err := Run(sys, Options{Samples: 4000, Step: 1e-10, Steps: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(sys, Options{Samples: 60, Step: 1e-10, Steps: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lhs, err := Run(sys, Options{Samples: 60, Step: 1e-10, Steps: 4, Seed: 5, LatinHypercube: true})
	if err != nil {
		t.Fatal(err)
	}
	node, step := 15, 4
	ePlain := math.Abs(small.Mean[step][node] - ref.Mean[step][node])
	eLHS := math.Abs(lhs.Mean[step][node] - ref.Mean[step][node])
	t.Logf("mean error: plain %.3g, lhs %.3g", ePlain, eLHS)
	if eLHS > ePlain*2 {
		t.Errorf("LHS error %g much worse than plain %g", eLHS, ePlain)
	}
}

func TestTrapezoidalMethod(t *testing.T) {
	sys := testGrid()
	res, err := Run(sys, Options{
		Samples: 20, Step: 5e-11, Steps: 10, Seed: 2, Method: transient.Trapezoidal,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.N; i++ {
		if res.Mean[10][i] <= 0 || res.Mean[10][i] > 1.2+1e-9 {
			t.Fatalf("unphysical TR mean %g", res.Mean[10][i])
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Samples: 0, Step: 1, Steps: 1}).Validate(16); err == nil {
		t.Error("zero samples accepted")
	}
	if err := (Options{Samples: 1, Step: 0, Steps: 1}).Validate(16); err == nil {
		t.Error("zero step accepted")
	}
	if err := (Options{Samples: 1, Step: 1, Steps: 1}).Validate(16); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestValidateRejectsBadTrackNodes(t *testing.T) {
	var tne *TrackNodeError
	err := (Options{Samples: 1, Step: 1, Steps: 1, TrackNodes: []int{0, 16}}).Validate(16)
	if !errors.As(err, &tne) {
		t.Fatalf("out-of-range node: err %T (%v), want *TrackNodeError", err, err)
	}
	if tne.Node != 16 || tne.N != 16 {
		t.Errorf("TrackNodeError = %+v", tne)
	}
	err = (Options{Samples: 1, Step: 1, Steps: 1, TrackNodes: []int{-1}}).Validate(0)
	if !errors.As(err, &tne) {
		t.Fatalf("negative node: err %T (%v), want *TrackNodeError", err, err)
	}
	// Run must surface the error instead of panicking mid-loop.
	sys := testGrid()
	if _, err := Run(sys, Options{Samples: 2, Step: 5e-11, Steps: 2, TrackNodes: []int{sys.N}}); err == nil {
		t.Error("Run accepted an out-of-range TrackNodes entry")
	}
}

// TestParallelDeterminism is the tentpole's acceptance criterion: the
// full result tensors must be bit-identical across worker counts.
func TestParallelDeterminism(t *testing.T) {
	three, err := mna.BuildThreeVar(testNetlist(), mna.DefaultThreeVarSpec())
	if err != nil {
		t.Fatal(err)
	}
	spatial, err := mna.BuildSpatial(testNetlist(), mna.SpatialSpec{
		RegionsPerAxis: 2, KG: 0.25 / 3, KCL: 0.20 / 3, KIL: 0.20 / 3,
		CorrLength: 1, MaxDims: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*mna.System{testGrid(), three, spatial} {
		t.Run(fmt.Sprintf("K=%d", sys.Dims()), func(t *testing.T) {
			assertWorkerCountInvariant(t, sys)
		})
	}
}

func assertWorkerCountInvariant(t *testing.T, sys *mna.System) {
	t.Helper()
	base := Options{Samples: 61, Step: 5e-11, Steps: 8, Seed: 42, TrackNodes: []int{15}}
	var ref *Result
	for _, w := range []int{1, 2, 4} {
		opt := base
		opt.Workers = w
		res, err := Run(sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.SamplesRun != base.Samples {
			t.Fatalf("workers=%d: ran %d samples", w, res.SamplesRun)
		}
		if ref == nil {
			ref = res
			continue
		}
		for s := range ref.Mean {
			for i := range ref.Mean[s] {
				if res.Mean[s][i] != ref.Mean[s][i] {
					t.Fatalf("workers=%d: mean differs at step %d node %d: %.17g vs %.17g",
						w, s, i, res.Mean[s][i], ref.Mean[s][i])
				}
				if res.Variance[s][i] != ref.Variance[s][i] {
					t.Fatalf("workers=%d: variance differs at step %d node %d: %.17g vs %.17g",
						w, s, i, res.Variance[s][i], ref.Variance[s][i])
				}
			}
		}
		for k := range ref.Traces {
			for s := range ref.Traces[k] {
				for j := range ref.Traces[k][s] {
					if res.Traces[k][s][j] != ref.Traces[k][s][j] {
						t.Fatalf("workers=%d: trace differs at sample %d step %d", w, k, s)
					}
				}
			}
		}
	}
}

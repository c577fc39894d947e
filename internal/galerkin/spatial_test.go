package galerkin

import (
	"math"
	"testing"

	"opera/internal/mna"
	"opera/internal/netlist"
)

// regionedGrid builds the 3x3 test grid with every element tagged into
// a 2x2 region map (region = quadrant).
func regionedGrid() *netlist.Netlist {
	nl := smallGrid()
	regionOf := func(node int) int {
		r, c := node/3, node%3
		ri, ci := 0, 0
		if r >= 2 {
			ri = 1
		}
		if c >= 2 {
			ci = 1
		}
		return ri*2 + ci
	}
	for i := range nl.Resistors {
		nl.Resistors[i].Region = regionOf(nl.Resistors[i].A)
	}
	for i := range nl.Caps {
		nl.Caps[i].Region = regionOf(nl.Caps[i].A)
	}
	for i := range nl.Sources {
		nl.Sources[i].Region = regionOf(nl.Sources[i].A)
	}
	return nl
}

func TestSpatialPerfectCorrelationEqualsInterDie(t *testing.T) {
	// CorrLength → ∞ makes all regions move together: one principal
	// component with weight 1 everywhere — the inter-die model. Compare
	// against the combined two-variable system with matching
	// sensitivities.
	nl := regionedGrid()
	// Both models multiply the capacitor's GateFrac at stamping, so
	// the same KCL value means the same ∂C/∂ξ.
	spec := mna.SpatialSpec{
		RegionsPerAxis: 2,
		KG:             0.25 / 3,
		KCL:            0.2 / 3,
		KIL:            0.2 / 3,
		CorrLength:     1e9,
		EnergyCutoff:   0.999999,
	}
	ssys, err := mna.BuildSpatial(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ssys.Dims() != 2 {
		t.Fatalf("perfect correlation should keep 1 PC per field, got %d dims", ssys.Dims())
	}
	// Equivalent inter-die model. The spatial model treats pads as
	// deterministic package metal, so the reference uses off-die pads.
	nl2 := regionedGrid()
	for i := range nl2.Pads {
		nl2.Pads[i].OnDie = false
	}
	sys2, err := mna.Build(nl2, mna.VariationSpec{KG: spec.KG, KCL: spec.KCL, KIL: spec.KIL})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 15}
	meanS, varS, _ := runGalerkin(t, ssys, 2, opts)
	mean2, var2, _ := runGalerkin(t, sys2, 2, opts)
	for s := 0; s <= opts.Steps; s++ {
		for i := 0; i < ssys.N; i++ {
			if d := math.Abs(meanS[s][i] - mean2[s][i]); d > 1e-9 {
				t.Fatalf("spatial/inter-die mean mismatch at step %d node %d: %g", s, i, d)
			}
			if d := math.Abs(varS[s][i] - var2[s][i]); d > 1e-11 {
				t.Fatalf("spatial/inter-die variance mismatch at step %d node %d: %g vs %g",
					s, i, varS[s][i], var2[s][i])
			}
		}
	}
}

func TestSpatialIndependentRegionsReduceVariance(t *testing.T) {
	// With independent regions (L = 0) the per-node σ must be no larger
	// than under perfect correlation: spatial averaging cancels part of
	// the fluctuation.
	nl := regionedGrid()
	base := mna.SpatialSpec{
		RegionsPerAxis: 2,
		KG:             0.25 / 3, KCL: 0.08 / 3, KIL: 0.2 / 3,
		EnergyCutoff: 0.999999,
	}
	runVar := func(corr float64) []float64 {
		spec := base
		spec.CorrLength = corr
		ssys, err := mna.BuildSpatial(nl, spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Step: tStep, Steps: 12}
		_, variance, _ := runGalerkin(t, ssys, 2, opts)
		return variance[opts.Steps]
	}
	indep := runVar(0)
	corr := runVar(1e9)
	totI, totC := 0.0, 0.0
	for i := range indep {
		totI += indep[i]
		totC += corr[i]
	}
	t.Logf("total variance: independent %.4g, correlated %.4g", totI, totC)
	if totI >= totC {
		t.Errorf("independent-region variance %g should be below correlated %g", totI, totC)
	}
}

// TestSpatialGalerkinMatchesQuadrature validates the spatial solve
// against a tensor-quadrature reference over the principal variables on
// the small grid (independent regions, truncated to few dims).
func TestSpatialGalerkinMatchesQuadrature(t *testing.T) {
	nl := regionedGrid()
	spec := mna.SpatialSpec{
		RegionsPerAxis: 2,
		KG:             0.25 / 3, KCL: 0.08 / 3, KIL: 0.2 / 3,
		CorrLength: 1.0,
		MaxDims:    2, // keep the quadrature tensor small: 2+2 dims
	}
	ssys, err := mna.BuildSpatial(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ssys.Dims() != 4 {
		t.Fatalf("expected 4 truncated dims, got %d", ssys.Dims())
	}
	opts := Options{Step: tStep, Steps: 10}
	mean, variance, _ := runGalerkin(t, ssys, 2, opts)
	// Quadrature reference over 4 dims with 4 points each (256 runs of
	// a 9-node system).
	refMean, refVar := quadratureReference(t, ssys, 4, opts.Steps)
	for s := 0; s <= opts.Steps; s++ {
		for i := 0; i < ssys.N; i++ {
			if d := math.Abs(mean[s][i] - refMean[s][i]); d > 3e-5 {
				t.Fatalf("spatial mean vs quadrature at step %d node %d: %g", s, i, d)
			}
			if refVar[s][i] > 1e-12 {
				if rel := math.Abs(variance[s][i]-refVar[s][i]) / refVar[s][i]; rel > 0.06 {
					t.Fatalf("spatial variance vs quadrature at step %d node %d: rel %g", s, i, rel)
				}
			}
		}
	}
}

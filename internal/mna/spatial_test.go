package mna

import (
	"math"
	"testing"

	"opera/internal/netlist"
)

// regionGrid tags the two-node grid into 2 regions... too small for
// spatial; build a 4-node path with 4 regions instead.
func spatialTestGrid() *netlist.Netlist {
	nl := &netlist.Netlist{NumNodes: 4}
	for i := 0; i < 3; i++ {
		nl.Resistors = append(nl.Resistors, netlist.Resistor{
			Name: string(rune('a' + i)), A: i, B: i + 1, Ohms: 1, OnDie: true, Region: i % 4,
		})
	}
	for i := 0; i < 4; i++ {
		nl.Caps = append(nl.Caps, netlist.Capacitor{
			Name: string(rune('a' + i)), A: i, B: netlist.Ground,
			Farads: 1e-12, GateFrac: 0.4, Region: i,
		})
		nl.Sources = append(nl.Sources, netlist.CurrentSource{
			Name: string(rune('w' + i%3)), A: i, Wave: netlist.DC(1e-3),
			LeffSens: 1, Region: i,
		})
	}
	nl.Pads = []netlist.Pad{{Name: "p", Node: 0, VDD: 1.2, Rpin: 0.1}}
	return nl
}

func TestSpatialCovarianceKernel(t *testing.T) {
	cov := spatialCovariance(2, 1.0)
	if len(cov) != 4 {
		t.Fatalf("size %d", len(cov))
	}
	for i := range cov {
		if cov[i][i] != 1 {
			t.Errorf("diagonal %g", cov[i][i])
		}
	}
	// Regions 0 (0,0) and 1 (1,0): distance 1 → e^{-1}.
	if math.Abs(cov[0][1]-math.Exp(-1)) > 1e-12 {
		t.Errorf("adjacent covariance %g", cov[0][1])
	}
	// Regions 0 and 3: distance √2 → e^{-√2}.
	if math.Abs(cov[0][3]-math.Exp(-math.Sqrt2)) > 1e-12 {
		t.Errorf("diagonal-neighbor covariance %g", cov[0][3])
	}
	// Zero correlation length: identity.
	id := spatialCovariance(2, 0)
	for i := range id {
		for j := range id[i] {
			want := 0.0
			if i == j {
				want = 1
			}
			if id[i][j] != want {
				t.Errorf("L=0 cov[%d][%d] = %g", i, j, id[i][j])
			}
		}
	}
}

func TestTruncateDims(t *testing.T) {
	lambda := []float64{4, 2, 1, 0.5}
	// cutoff 0.5: first eigenvalue covers 4/7.5 = 0.53 → 1 dim.
	if d := truncateDims(lambda, 0.5, 0); d != 1 {
		t.Errorf("dims %d, want 1", d)
	}
	// cutoff 0.95: 4+2+1 = 7/7.5 = 0.933, need the fourth → 4 dims.
	if d := truncateDims(lambda, 0.95, 0); d != 4 {
		t.Errorf("dims %d, want 4", d)
	}
	// cap wins
	if d := truncateDims(lambda, 0.99, 2); d != 2 {
		t.Errorf("capped dims %d, want 2", d)
	}
	// zero eigenvalues: at least one dim
	if d := truncateDims([]float64{0, 0}, 0.9, 0); d != 1 {
		t.Errorf("degenerate dims %d, want 1", d)
	}
}

func TestBuildSpatialDimsAndSensitivities(t *testing.T) {
	nl := spatialTestGrid()
	sys, err := BuildSpatial(nl, SpatialSpec{
		RegionsPerAxis: 2, KG: 0.1, KCL: 0.05, KIL: 0.07,
		CorrLength: 0, EnergyCutoff: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Independent 4 regions → 4 dims per field: geometry dims k < 4,
	// Leff dims k >= 4.
	if sys.Dims() != 8 {
		t.Fatalf("dims %d", sys.Dims())
	}
	dimsG := sys.Dims() / 2
	// Geometry dims carry G sensitivity (except the principal direction
	// of region 3, which holds no resistors in this grid) and never C
	// sensitivity; Leff dims the reverse.
	withG := 0
	for k := 0; k < dimsG; k++ {
		if sys.GSens[k] != nil && sys.GSens[k].NNZ() > 0 {
			withG++
		}
		if sys.CSens[k] != nil && sys.CSens[k].NNZ() > 0 {
			t.Errorf("geometry dim %d has C sensitivity", k)
		}
	}
	if withG != 3 { // resistors tagged into regions 0, 1, 2 only
		t.Errorf("%d geometry dims carry G sensitivity, want 3", withG)
	}
	for k := dimsG; k < sys.Dims(); k++ {
		if sys.CSens[k] == nil || sys.CSens[k].NNZ() == 0 {
			t.Errorf("Leff dim %d has no C sensitivity", k)
		}
		if sys.GSens[k] != nil && sys.GSens[k].NNZ() > 0 {
			t.Errorf("Leff dim %d has G sensitivity", k)
		}
	}
	// Total G variance equals Σ_k GSens_k² entrywise summed = KG²·(per
	// region stamps)² — check one entry: resistor a spans nodes 0-1 in
	// region 0: Var(∂g00) = Σ_k (KG·w_k[0])² = KG²·Cov[0][0] = KG².
	tot := 0.0
	for k := 0; k < dimsG; k++ {
		if sys.GSens[k] == nil {
			continue // no resistor of this principal direction
		}
		v := sys.GSens[k].At(0, 0)
		tot += v * v
	}
	want := 0.1 * 0.1 * 1.0 // KG² × unit regional variance × (g=1)²
	if math.Abs(tot-want) > 1e-12 {
		t.Errorf("total G sensitivity variance %g, want %g", tot, want)
	}
}

func TestBuildSpatialRejectsUntaggedElements(t *testing.T) {
	nl := spatialTestGrid()
	nl.Resistors[0].Region = -1
	if _, err := BuildSpatial(nl, SpatialSpec{
		RegionsPerAxis: 2, KG: 0.1, CorrLength: 1,
	}); err == nil {
		t.Error("untagged on-die resistor accepted")
	}
	// A Leff-sensitive source tagged beyond the region map must be
	// rejected at build time, not index out of range in the solve; a
	// negative tag means unassigned and stays legal.
	nl = spatialTestGrid()
	nl.Sources[0].Region = 7
	if _, err := BuildSpatial(nl, SpatialSpec{
		RegionsPerAxis: 2, KG: 0.1, KIL: 0.1, CorrLength: 1,
	}); err == nil {
		t.Error("out-of-range source region accepted")
	}
	nl.Sources[0].Region = -1
	if _, err := BuildSpatial(nl, SpatialSpec{
		RegionsPerAxis: 2, KG: 0.1, KIL: 0.1, CorrLength: 1,
	}); err != nil {
		t.Errorf("unassigned source rejected: %v", err)
	}
}

func TestSpatialRealizeZeroIsNominal(t *testing.T) {
	nl := spatialTestGrid()
	sys, err := BuildSpatial(nl, SpatialSpec{
		RegionsPerAxis: 2, KG: 0.1, KCL: 0.05, KIL: 0.07, CorrLength: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, sys.Dims())
	g, c, rhs := sys.Realize(z)
	for i := 0; i < sys.N; i++ {
		for j := 0; j < sys.N; j++ {
			if math.Abs(g.At(i, j)-sys.Ga.At(i, j)) > 1e-14 {
				t.Fatalf("zero realization G differs at (%d,%d)", i, j)
			}
			if math.Abs(c.At(i, j)-sys.Ca.At(i, j)) > 1e-26 {
				t.Fatalf("zero realization C differs at (%d,%d)", i, j)
			}
		}
	}
	u := make([]float64, sys.N)
	rhs(0, u)
	ua := make([]float64, sys.N)
	sys.RHS(0, ua, nil)
	for i := range u {
		if math.Abs(u[i]-ua[i]) > 1e-15 {
			t.Fatalf("zero realization RHS differs at %d", i)
		}
	}
}

package mna

import (
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/netlist"
	"opera/internal/sparse"
)

// twoNodeGrid: pad -> node0 -- R=1 -- node1, cap at node1, drain at
// node1.
func twoNodeGrid() *netlist.Netlist {
	return &netlist.Netlist{
		NumNodes: 2,
		Resistors: []netlist.Resistor{
			{Name: "m", A: 0, B: 1, Ohms: 1, OnDie: true},
		},
		Caps: []netlist.Capacitor{
			{Name: "l", A: 1, B: netlist.Ground, Farads: 1e-12, GateFrac: 0.4},
		},
		Sources: []netlist.CurrentSource{
			{Name: "b", A: 1, Wave: netlist.DC(0.01), LeffSens: 1, Region: -1},
		},
		Pads: []netlist.Pad{
			{Name: "p", Node: 0, VDD: 1.2, Rpin: 0.5, OnDie: true},
		},
	}
}

func TestBuildStamps(t *testing.T) {
	spec := VariationSpec{KG: 0.1, KCL: 0.05, KIL: 0.08}
	sys, err := Build(twoNodeGrid(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Ga: node0: 1/R + 1/Rpin = 1 + 2 = 3; node1: 1; off-diagonal -1.
	if got := sys.Ga.At(0, 0); math.Abs(got-3) > 1e-12 {
		t.Errorf("Ga[0][0] = %g, want 3", got)
	}
	if got := sys.Ga.At(1, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("Ga[1][1] = %g, want 1", got)
	}
	if got := sys.Ga.At(0, 1); math.Abs(got+1) > 1e-12 {
		t.Errorf("Ga[0][1] = %g, want -1", got)
	}
	// Gg = KG·(on-die conductance stamps) = 0.1·Ga here (all on-die).
	if got := sys.GSens[DimG].At(0, 0); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Gg[0][0] = %g, want 0.3", got)
	}
	// Ca: 1e-12 at node1; Cc = 0.4·0.05·1e-12.
	if got := sys.Ca.At(1, 1); math.Abs(got-1e-12) > 1e-24 {
		t.Errorf("Ca[1][1] = %g", got)
	}
	if got := sys.CSens[DimL].At(1, 1); math.Abs(got-0.4*0.05*1e-12) > 1e-26 {
		t.Errorf("Cc[1][1] = %g", got)
	}
	if sys.VDD != 1.2 {
		t.Errorf("VDD = %g", sys.VDD)
	}
}

func TestRHSDecomposition(t *testing.T) {
	spec := VariationSpec{KG: 0.1, KCL: 0.05, KIL: 0.08}
	sys, err := Build(twoNodeGrid(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ua := make([]float64, 2)
	ug := make([]float64, 2)
	uc := make([]float64, 2)
	sys.RHS(0, ua, [][]float64{ug, uc})
	// ua: pad injection 2·1.2 = 2.4 at node0; drain −0.01 at node1.
	if math.Abs(ua[0]-2.4) > 1e-12 || math.Abs(ua[1]+0.01) > 1e-12 {
		t.Errorf("ua = %v", ua)
	}
	// ug: pad sens = 2·1.2·0.1 at node0.
	if math.Abs(ug[0]-0.24) > 1e-12 || ug[1] != 0 {
		t.Errorf("ug = %v", ug)
	}
	// uc: −0.01·1·0.08 at node1.
	if uc[0] != 0 || math.Abs(uc[1]+0.0008) > 1e-15 {
		t.Errorf("uc = %v", uc)
	}
}

func TestRealizeConsistency(t *testing.T) {
	sys, err := Build(twoNodeGrid(), DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	xiG, xiL := 1.5, -0.7
	g, c, rhs := sys.Realize([]float64{xiG, xiL})
	// g = Ga + xiG·Gg entrywise.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := sys.Ga.At(i, j) + xiG*sys.GSens[DimG].At(i, j)
			if got := g.At(i, j); math.Abs(got-want) > 1e-12 {
				t.Errorf("g[%d][%d] = %g, want %g", i, j, got, want)
			}
			wantC := sys.Ca.At(i, j) + xiL*sys.CSens[DimL].At(i, j)
			if got := c.At(i, j); math.Abs(got-wantC) > 1e-24 {
				t.Errorf("c[%d][%d] = %g, want %g", i, j, got, wantC)
			}
		}
	}
	u := make([]float64, 2)
	rhs(0, u)
	ua := make([]float64, 2)
	ug := make([]float64, 2)
	uc := make([]float64, 2)
	sys.RHS(0, ua, [][]float64{ug, uc})
	for i := range u {
		want := ua[i] + xiG*ug[i] + xiL*uc[i]
		if math.Abs(u[i]-want) > 1e-12 {
			t.Errorf("u[%d] = %g, want %g", i, u[i], want)
		}
	}
}

func TestNominalDCVoltages(t *testing.T) {
	// DC solve of the 2-node grid: node voltages must drop from pad to
	// load and stay below VDD.
	sys, err := Build(twoNodeGrid(), DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 2)
	sys.RHS(0, u, nil)
	f, err := factor.Cholesky(sys.Ga, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := f.Solve(u)
	// Analytic: v0 = VDD − Rpin·I = 1.2 − 0.5·0.01 = 1.195,
	// v1 = v0 − R·I = 1.185.
	if math.Abs(v[0]-1.195) > 1e-12 {
		t.Errorf("v0 = %g, want 1.195", v[0])
	}
	if math.Abs(v[1]-1.185) > 1e-12 {
		t.Errorf("v1 = %g, want 1.185", v[1])
	}
}

func TestOffDieElementsDoNotVary(t *testing.T) {
	nl := twoNodeGrid()
	nl.Resistors[0].OnDie = false
	nl.Pads[0].OnDie = false
	sys, err := Build(nl, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sys.GSens[DimG] != nil {
		t.Errorf("Gg should be empty for all-off-die metal, nnz = %d", sys.GSens[DimG].NNZ())
	}
	ug := make([]float64, 2)
	sys.RHS(0, nil, [][]float64{ug})
	if ug[0] != 0 || ug[1] != 0 {
		t.Errorf("ug = %v, want zeros", ug)
	}
}

func TestUnionPatternCoversAll(t *testing.T) {
	sys, err := Build(twoNodeGrid(), DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	u := sys.UnionPattern()
	for _, m := range []struct {
		name string
		mat  interface{ At(int, int) float64 }
	}{
		{"Ga", sys.Ga}, {"Gg", sys.GSens[DimG]}, {"Ca", sys.Ca}, {"Cc", sys.CSens[DimL]},
	} {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if m.mat.At(i, j) != 0 && u.At(i, j) == 0 {
					t.Errorf("union pattern misses %s[%d][%d]", m.name, i, j)
				}
			}
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	nl := twoNodeGrid()
	nl.Pads = nil
	if _, err := Build(nl, DefaultSpec()); err == nil {
		t.Error("padless netlist accepted")
	}
}

func TestDefaultSpecMatchesPaperTable1Setup(t *testing.T) {
	s := DefaultSpec()
	// 3σ of 25% on ξG, 20% on Leff.
	if math.Abs(3*s.KG-0.25) > 1e-12 {
		t.Errorf("3σ geometry variation = %g, want 0.25", 3*s.KG)
	}
	if math.Abs(3*s.KIL-0.20) > 1e-12 {
		t.Errorf("3σ current variation = %g, want 0.20", 3*s.KIL)
	}
}

func TestThreeVarStampMatchesCombined(t *testing.T) {
	nl := twoNodeGrid()
	spec3 := DefaultThreeVarSpec()
	sys3, err := BuildThreeVar(nl, spec3)
	if err != nil {
		t.Fatal(err)
	}
	// Gw = KW·(on-die stamps); for the all-on-die grid Gw = KW/KG·Gg of
	// the combined system.
	sys2, err := Build(nl, spec3.Combine())
	if err != nil {
		t.Fatal(err)
	}
	kg := spec3.Combine().KG
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := sys2.GSens[DimG].At(i, j) * spec3.KW / kg
			if got := sys3.GSens[Dim3W].At(i, j); math.Abs(got-want) > 1e-14 {
				t.Errorf("Gw[%d][%d] = %g, want %g", i, j, got, want)
			}
			wantT := sys2.GSens[DimG].At(i, j) * spec3.KT / kg
			if got := sys3.GSens[Dim3T].At(i, j); math.Abs(got-wantT) > 1e-14 {
				t.Errorf("Gt[%d][%d] = %g, want %g", i, j, got, wantT)
			}
		}
	}
}

func TestThreeVarCombineRootSumSquare(t *testing.T) {
	s := ThreeVarSpec{KW: 0.3, KT: 0.4, KCL: 0.1, KIL: 0.2}
	c := s.Combine()
	if math.Abs(c.KG-0.5) > 1e-15 {
		t.Errorf("KG = %g, want 0.5", c.KG)
	}
	if c.KCL != 0.1 || c.KIL != 0.2 {
		t.Error("KCL/KIL must pass through unchanged")
	}
}

func TestThreeVarRHS(t *testing.T) {
	nl := twoNodeGrid()
	spec3 := DefaultThreeVarSpec()
	sys3, err := BuildThreeVar(nl, spec3)
	if err != nil {
		t.Fatal(err)
	}
	ua := make([]float64, 2)
	uw := make([]float64, 2)
	ut := make([]float64, 2)
	uc := make([]float64, 2)
	sys3.RHS(0, ua, [][]float64{uw, ut, uc})
	// Pad injection 2·1.2 at node 0 with W/T sensitivities.
	if math.Abs(ua[0]-2.4) > 1e-12 {
		t.Errorf("ua[0] = %g", ua[0])
	}
	if math.Abs(uw[0]-2.4*spec3.KW) > 1e-12 {
		t.Errorf("uw[0] = %g", uw[0])
	}
	if math.Abs(ut[0]-2.4*spec3.KT) > 1e-12 {
		t.Errorf("ut[0] = %g", ut[0])
	}
	if math.Abs(uc[1]+0.01*spec3.KIL) > 1e-15 {
		t.Errorf("uc[1] = %g", uc[1])
	}
}

func TestCorrelatedBuildAndRealize(t *testing.T) {
	nl := twoNodeGrid()
	sW, sT, sL := 0.06, 0.05, 0.07
	rho := 0.5
	cov := [][]float64{
		{sW * sW, rho * sW * sT, 0},
		{rho * sW * sT, sT * sT, 0},
		{0, 0, sL * sL},
	}
	sys, err := BuildCorrelated(nl, cov)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dims() != 3 {
		t.Fatalf("dims %d", sys.Dims())
	}
	// Every element of the grid is on-die metal or gate capacitance, so
	// node 1's entries scale Ga and Ca by the per-dimension
	// sensitivities (a nil sensitivity is zero).
	at := func(m *sparse.Matrix, i, j int) float64 {
		if m == nil {
			return 0
		}
		return m.At(i, j)
	}
	// Total conductance sensitivity variance: Σ_k GSens_k² must equal
	// Var(δW + δT) = σW² + σT² + 2ρσWσT.
	tot := 0.0
	for k := 0; k < 3; k++ {
		gs := at(sys.GSens[k], 1, 1) / sys.Ga.At(1, 1)
		tot += gs * gs
	}
	want := sW*sW + sT*sT + 2*rho*sW*sT
	if math.Abs(tot-want) > 1e-12 {
		t.Errorf("Σ GSens² = %g, want %g", tot, want)
	}
	// Σ CSens² = σL².
	totC := 0.0
	for k := 0; k < 3; k++ {
		cs := at(sys.CSens[k], 1, 1) / (0.4 * sys.Ca.At(1, 1))
		totC += cs * cs
	}
	if math.Abs(totC-sL*sL) > 1e-12 {
		t.Errorf("Σ CSens² = %g, want %g", totC, sL*sL)
	}
	// Realize at z=0 reproduces nominal matrices and RHS.
	g, c, rhs := sys.Realize([]float64{0, 0, 0})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(g.At(i, j)-sys.Ga.At(i, j)) > 1e-14 {
				t.Fatal("zero realization G differs")
			}
			if math.Abs(c.At(i, j)-sys.Ca.At(i, j)) > 1e-26 {
				t.Fatal("zero realization C differs")
			}
		}
	}
	u := make([]float64, 2)
	rhs(0, u)
	ua := make([]float64, 2)
	sys.RHS(0, ua, make([][]float64, 3))
	for i := range u {
		if math.Abs(u[i]-ua[i]) > 1e-15 {
			t.Fatal("zero realization RHS differs")
		}
	}
	// Nonzero z shifts G along the on-die sensitivity.
	g1, _, _ := sys.Realize([]float64{1, 0, 0})
	diff := g1.At(0, 0) - sys.Ga.At(0, 0)
	if math.Abs(diff-at(sys.GSens[0], 0, 0)) > 1e-14 {
		t.Errorf("realized shift %g", diff)
	}
}

func TestCorrelatedRejectsBadCovariance(t *testing.T) {
	nl := twoNodeGrid()
	if _, err := BuildCorrelated(nl, [][]float64{{1}}); err == nil {
		t.Error("wrong-size covariance accepted")
	}
	bad := [][]float64{{1, 2, 0}, {2, 1, 0}, {0, 0, 1}} // indefinite
	if _, err := BuildCorrelated(nl, bad); err == nil {
		t.Error("indefinite covariance accepted")
	}
}

func TestThreeVarRealize(t *testing.T) {
	nl := twoNodeGrid()
	spec := DefaultThreeVarSpec()
	sys, err := BuildThreeVar(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	xiW, xiT, xiL := 0.5, -0.25, 1.5
	g, c, rhs := sys.Realize([]float64{xiW, xiT, xiL})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			wantG := sys.Ga.At(i, j) + xiW*sys.GSens[Dim3W].At(i, j) + xiT*sys.GSens[Dim3T].At(i, j)
			if math.Abs(g.At(i, j)-wantG) > 1e-13 {
				t.Errorf("G(%d,%d) = %g, want %g", i, j, g.At(i, j), wantG)
			}
			wantC := sys.Ca.At(i, j) + xiL*sys.CSens[Dim3L].At(i, j)
			if math.Abs(c.At(i, j)-wantC) > 1e-25 {
				t.Errorf("C(%d,%d) mismatch", i, j)
			}
		}
	}
	u := make([]float64, 2)
	rhs(0, u)
	ua := make([]float64, 2)
	uw := make([]float64, 2)
	ut := make([]float64, 2)
	uc := make([]float64, 2)
	sys.RHS(0, ua, [][]float64{uw, ut, uc})
	for i := range u {
		want := ua[i] + xiW*uw[i] + xiT*ut[i] + xiL*uc[i]
		if math.Abs(u[i]-want) > 1e-14 {
			t.Errorf("u[%d] = %g, want %g", i, u[i], want)
		}
	}
}

func TestSpatialSpecValidate(t *testing.T) {
	cases := []SpatialSpec{
		{RegionsPerAxis: 0, KG: 0.1},
		{RegionsPerAxis: 2, KG: -0.1},
		{RegionsPerAxis: 2, KG: 0.1, CorrLength: -1},
		{RegionsPerAxis: 2, KG: 0.1, EnergyCutoff: 1.5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := SpatialSpec{RegionsPerAxis: 2, KG: 0.1, KCL: 0.1, KIL: 0.1, CorrLength: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

package mna

import (
	"math"
	"math/rand"
	"testing"

	"opera/internal/netlist"
	"opera/internal/sparse"
)

// addChain realizes G(z) (or C(z)) as a realization is defined: the
// sparse.Add chain nominal + z_0·S_0 + z_1·S_1 + …, skipping nil
// sensitivities.
func addChain(nominal *sparse.Matrix, sens []*sparse.Matrix, z []float64) *sparse.Matrix {
	m := nominal.Clone()
	for k, s := range sens {
		if s != nil {
			m = sparse.Add(1, m, z[k], s)
		}
	}
	return m
}

// sameBits fails unless a and b have one pattern and bitwise equal
// values.
func sameBits(t *testing.T, what string, a, b *sparse.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: %dx%d with %d entries vs %dx%d with %d", what, a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for j := 0; j <= a.Cols; j++ {
		if a.Colp[j] != b.Colp[j] {
			t.Fatalf("%s: column pointer %d differs", what, j)
		}
	}
	for p := range a.Rowi {
		if a.Rowi[p] != b.Rowi[p] || math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			t.Fatalf("%s: entry %d is (%d, %v), want (%d, %v)", what, p, a.Rowi[p], a.Val[p], b.Rowi[p], b.Val[p])
		}
	}
}

// handBuiltSystem is a K = 3 model no builder makes: G_0 couples nodes
// 0 and 2, which Ga does not; C_1 couples nodes 0 and 1, which the
// diagonal Ca does not, and stores explicit zeros at (0, 2) and (2, 0),
// which no earlier term covers; G_1, C_0 and C_2 are nil; u_0 is a
// static pad part and u_1, u_2 follow the sources.
func handBuiltSystem() *System {
	nl := &netlist.Netlist{
		NumNodes: 3,
		Resistors: []netlist.Resistor{
			{Name: "a", A: 0, B: 1, Ohms: 2, OnDie: true},
			{Name: "b", A: 1, B: 2, Ohms: 3, OnDie: true},
		},
		Sources: []netlist.CurrentSource{
			{Name: "s", A: 2, Wave: &netlist.Pulse{Low: 1e-3, High: 2e-2, Delay: 1e-10, Rise: 1e-10, Width: 2e-10, Fall: 1e-10, Period: 1e-9}, LeffSens: 1},
			{Name: "t", A: 1, Wave: netlist.DC(5e-3), LeffSens: 0.5},
		},
		Pads: []netlist.Pad{{Name: "p", Node: 0, VDD: 1.2, Rpin: 0.1, OnDie: true}},
	}
	ga := sparse.NewTriplet(3, 3, 0)
	stamp(ga, 0, 1, 0.5)
	stamp(ga, 1, 2, 1.0/3)
	ga.Add(0, 0, 10)
	ca := sparse.NewTriplet(3, 3, 0)
	for i := 0; i < 3; i++ {
		ca.Add(i, i, 1e-12*float64(i+1))
	}
	g0 := sparse.NewTriplet(3, 3, 0)
	stamp(g0, 0, 2, 0.07)
	g0.Add(1, 1, 0.02)
	g2 := sparse.NewTriplet(3, 3, 0)
	g2.Add(1, 1, -0.03)
	c1 := sparse.NewTriplet(3, 3, 0)
	stamp(c1, 0, 1, 2e-14)
	c1.Add(0, 2, 0)
	c1.Add(2, 0, 0)
	return &System{
		N:       3,
		Ga:      ga.Compile(),
		Ca:      ca.Compile(),
		GSens:   []*sparse.Matrix{g0.Compile(), nil, g2.Compile()},
		CSens:   []*sparse.Matrix{nil, c1.Compile(), nil},
		VDD:     1.2,
		netlist: nl,
		padBase: []float64{12, 0, 0},
		padSens: [][]float64{{0.4, 0, 0}, nil, nil},
		srcSens: [][]float64{nil, {0.06, 0.06}, {0.01, -0.02}},
	}
}

// TestPlanMatchesAddChain: at random z, the plan's G(z) and C(z) and
// the table's u(t_s, z) equal the sparse.Add chain and RHS's
// ua + Σ_k z_k·u_k bit for bit — patterns included — for every
// builder (nil sensitivities included) and for a hand-built model whose
// sensitivities reach outside Ga's and Ca's patterns. Realize, which
// runs on the plan, returns the same values.
func TestPlanMatchesAddChain(t *testing.T) {
	spatial, err := BuildSpatial(spatialTestGrid(), SpatialSpec{
		RegionsPerAxis: 2, KG: 0.1, KCL: 0.05, KIL: 0.07, CorrLength: 1, EnergyCutoff: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Build(twoNodeGrid(), VariationSpec{KG: 0.1, KCL: 0.05, KIL: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	three, err := BuildThreeVar(spatialTestGrid(), DefaultThreeVarSpec())
	if err != nil {
		t.Fatal(err)
	}
	corr, err := BuildCorrelated(twoNodeGrid(), [][]float64{{0.0036, 0.0015, 0}, {0.0015, 0.0025, 0}, {0, 0, 0.0049}})
	if err != nil {
		t.Fatal(err)
	}
	const h, steps = 1e-10, 12
	rng := rand.New(rand.NewSource(3))
	nils := 0
	for _, tc := range []struct {
		name string
		sys  *System
	}{{"two-variable", two}, {"three-variable", three}, {"correlated", corr}, {"spatial", spatial}, {"hand-built", handBuiltSystem()}} {
		sys := tc.sys
		for k := range sys.GSens {
			if sys.GSens[k] == nil {
				nils++
			}
			if sys.CSens[k] == nil {
				nils++
			}
		}
		plan := sys.Plan()
		exc := sys.Tabulate(h, steps)
		g, c := plan.Matrices()
		n, dims := sys.N, sys.Dims()
		u, want := make([]float64, n), make([]float64, n)
		ua := make([]float64, n)
		uk := make([][]float64, dims)
		for k := range uk {
			uk[k] = make([]float64, n)
		}
		for trial := 0; trial < 4; trial++ {
			z := make([]float64, dims)
			for k := range z {
				z[k] = rng.NormFloat64()
				if trial == 0 {
					z[k] = -math.Abs(z[k]) // z_k·0 = −0 must survive as −0
				}
			}
			plan.Fill(z, g, c)
			sameBits(t, tc.name+" G(z)", g, addChain(sys.Ga, sys.GSens, z))
			sameBits(t, tc.name+" C(z)", c, addChain(sys.Ca, sys.CSens, z))
			rg, rc, rhs := sys.Realize(z)
			sameBits(t, tc.name+" Realize G", rg, g)
			sameBits(t, tc.name+" Realize C", rc, c)
			for s := 0; s <= steps; s++ {
				tt := float64(s) * h
				sys.RHS(tt, ua, uk)
				copy(want, ua)
				for k, zk := range z {
					for i, v := range uk[k] {
						want[i] += zk * v
					}
				}
				exc.At(s, z, u)
				for i := range u {
					if math.Float64bits(u[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: u(t_%d, z)[%d] = %v, want %v", tc.name, s, i, u[i], want[i])
					}
				}
				rhs(tt, u)
				for i := range u {
					if math.Float64bits(u[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: Realize rhs(t_%d)[%d] = %v, want %v", tc.name, s, i, u[i], want[i])
					}
				}
			}
		}
	}
	if nils == 0 {
		t.Fatal("no model had a nil sensitivity")
	}
	// The explicit zero C_1 stores at (0, 2) is that slot's first term:
	// at a negative z_1 the chain makes it z_1·0 = −0, where a fill
	// that started from +0 and added would give +0. Check the case the
	// comparisons above rely on really arises.
	hb := handBuiltSystem()
	plan := hb.Plan()
	g, c := plan.Matrices()
	plan.Fill([]float64{0.3, -1.5, 0.2}, g, c)
	if v := c.At(0, 2); v != 0 || !math.Signbit(v) {
		t.Fatalf("C(z)(0, 2) = %v, want −0", v)
	}
}

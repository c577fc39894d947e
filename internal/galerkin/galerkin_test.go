package galerkin

import (
	"math"
	"testing"

	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/pce"
	"opera/internal/quad"
	"opera/internal/sparse"
	"opera/internal/transient"
)

// smallGrid builds a 3x3 mesh with a pad and two drains.
func smallGrid() *netlist.Netlist {
	id := func(r, c int) int { return r*3 + c }
	nl := &netlist.Netlist{NumNodes: 9}
	name := 0
	addR := func(a, b int) {
		nl.Resistors = append(nl.Resistors, netlist.Resistor{
			Name: string(rune('a' + name)), A: a, B: b, Ohms: 2, OnDie: true})
		name++
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if c < 2 {
				addR(id(r, c), id(r, c+1))
			}
			if r < 2 {
				addR(id(r, c), id(r+1, c))
			}
		}
	}
	for i := 0; i < 9; i++ {
		nl.Caps = append(nl.Caps, netlist.Capacitor{
			Name: string(rune('a' + i)), A: i, B: netlist.Ground, Farads: 1e-10, GateFrac: 0.4})
	}
	pulse := &netlist.Pulse{Low: 0, High: 0.02, Delay: 2e-10, Rise: 1e-10, Width: 4e-10, Fall: 1e-10, Period: 2e-9}
	nl.Sources = []netlist.CurrentSource{
		{Name: "s1", A: id(2, 2), Wave: pulse, LeffSens: 1, Region: 0},
		{Name: "s2", A: id(1, 1), Wave: netlist.DC(0.005), LeffSens: 1, Region: 1},
	}
	nl.Pads = []netlist.Pad{{Name: "p", Node: id(0, 0), VDD: 1.2, Rpin: 0.2, OnDie: true}}
	return nl
}

const (
	tStep  = 5e-11
	tSteps = 40
)

// quadratureReference computes E[x(t)] and Var(x(t)) at every node and
// step by tensor Gauss–Hermite quadrature over the system's K
// variables: each quadrature node is one deterministic transient solve.
// Exact up to quadrature truncation (the response is analytic in ξ), so
// it is a noise-free reference unlike Monte Carlo.
func quadratureReference(t *testing.T, sys *mna.System, npts, steps int) (mean, variance [][]float64) {
	t.Helper()
	rule, err := quad.GaussHermite(npts)
	if err != nil {
		t.Fatal(err)
	}
	nsteps := steps + 1
	mean = alloc2(nsteps, sys.N)
	m2 := alloc2(nsteps, sys.N)
	z := make([]float64, sys.Dims())
	var walk func(d int, w float64)
	walk = func(d int, w float64) {
		if d == len(z) {
			g, c, rhs := sys.Realize(z)
			err := transient.Run(g, c, rhs,
				transient.Options{Step: tStep, Steps: steps, Method: transient.BackwardEuler},
				func(step int, _ float64, x []float64) {
					for i, xi := range x {
						mean[step][i] += w * xi
						m2[step][i] += w * xi * xi
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		for q, x := range rule.Nodes {
			z[d] = x
			walk(d+1, w*rule.Weights[q])
		}
	}
	walk(0, 1)
	variance = alloc2(nsteps, sys.N)
	for s := range variance {
		for i := range variance[s] {
			variance[s][i] = m2[s][i] - mean[s][i]*mean[s][i]
		}
	}
	return mean, variance
}

// runGalerkin lifts sys onto the order-p Hermite basis over its K
// variables, solves, and returns the per-step moments, asserting that
// every block of coefficients delivered to the visitor is finite.
func runGalerkin(t *testing.T, sys *mna.System, order int, opts Options) (mean, variance [][]float64, res Result) {
	t.Helper()
	basis := pce.NewHermiteBasis(sys.Dims(), order)
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}
	nsteps := opts.Steps + 1
	mean = alloc2(nsteps, sys.N)
	variance = alloc2(nsteps, sys.N)
	res, err = Solve(gsys, opts, func(step int, _ float64, coeffs [][]float64) {
		if !numguard.FiniteBlocks(coeffs) {
			t.Fatalf("step %d: non-finite coefficients delivered to visitor", step)
		}
		for i := 0; i < sys.N; i++ {
			mean[step][i] = coeffs[0][i]
			v := 0.0
			for m := 1; m < basis.Size(); m++ {
				v += coeffs[m][i] * coeffs[m][i]
			}
			variance[step][i] = v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return mean, variance, res
}

func TestGalerkinMatchesQuadratureReference(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	refMean, refVar := quadratureReference(t, sys, 7, tSteps)
	opts := Options{Step: tStep, Steps: tSteps}
	mean, variance, res := runGalerkin(t, sys, 2, opts)
	// The variation is separable and the augmented system SPD: the
	// eigenbasis recursions serve it on Cholesky without an escalation.
	if res.Factorer != "supernodal" {
		t.Errorf("expected SPD augmented system, solved with %s", res.Factorer)
	}
	if rep := res.Guard(); !rep.Healthy() {
		t.Errorf("unhealthy solve: %s", rep.Summary())
	}
	if res.AugmentedN != 9*6 {
		t.Errorf("augmented size %d, want 54", res.AugmentedN)
	}
	// Mean must match to a fraction of the nominal drop; variance to a
	// few percent (order-2 truncation).
	for s := 0; s <= tSteps; s++ {
		for i := 0; i < sys.N; i++ {
			if d := math.Abs(mean[s][i] - refMean[s][i]); d > 2e-5 {
				t.Fatalf("mean mismatch at step %d node %d: %g vs %g", s, i, mean[s][i], refMean[s][i])
			}
			if refVar[s][i] > 1e-12 {
				rel := math.Abs(variance[s][i]-refVar[s][i]) / refVar[s][i]
				if rel > 0.05 {
					t.Fatalf("variance mismatch at step %d node %d: %g vs %g (rel %g)",
						s, i, variance[s][i], refVar[s][i], rel)
				}
			}
		}
	}
}

func TestOrder3ImprovesOnOrder2(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	refMean, refVar := quadratureReference(t, sys, 8, tSteps)
	opts := Options{Step: tStep, Steps: tSteps}
	_, v2, _ := runGalerkin(t, sys, 2, opts)
	_, v3, _ := runGalerkin(t, sys, 3, opts)
	_ = refMean
	// Compare total relative variance error at the final step.
	e2, e3 := 0.0, 0.0
	s := tSteps
	for i := 0; i < sys.N; i++ {
		if refVar[s][i] > 1e-12 {
			e2 += math.Abs(v2[s][i]-refVar[s][i]) / refVar[s][i]
			e3 += math.Abs(v3[s][i]-refVar[s][i]) / refVar[s][i]
		}
	}
	t.Logf("variance error: order2 %.3g, order3 %.3g", e2, e3)
	if e3 > e2 {
		t.Errorf("order-3 variance error %g should not exceed order-2 %g", e3, e2)
	}
}

func TestLinearRHSOnlyIsExact(t *testing.T) {
	// With a deterministic operator and an RHS linear in ξ, the response
	// is exactly linear in ξ: an order-1 expansion is exact, and the
	// decoupled path applies automatically.
	nl := smallGrid()
	for i := range nl.Resistors {
		nl.Resistors[i].OnDie = false
	}
	for i := range nl.Pads {
		nl.Pads[i].OnDie = false
	}
	for i := range nl.Caps {
		nl.Caps[i].GateFrac = 0
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	basis := pce.NewHermiteBasis(2, 1)
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}
	if p := planEigen(gsys); p == nil || p.mixed {
		t.Fatal("system should be RHS-only")
	}
	opts := Options{Step: tStep, Steps: 20}
	type snap struct{ coeffs [][]float64 }
	var last snap
	res, err := Solve(gsys, opts, func(step int, _ float64, coeffs [][]float64) {
		if step == opts.Steps {
			last.coeffs = alloc2(len(coeffs), sys.N)
			for m := range coeffs {
				copy(last.coeffs[m], coeffs[m])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decoupled {
		t.Error("decoupled path not taken")
	}
	// Reference: realize at ξ = (0.7, -1.3) and compare pointwise —
	// exactness means the PCE evaluated at ξ equals the deterministic
	// solve at ξ.
	xg, xl := 0.7, -1.3
	g, c, rhs := sys.Realize([]float64{xg, xl})
	var want []float64
	err = transient.Run(g, c, rhs,
		transient.Options{Step: tStep, Steps: 20, Method: transient.BackwardEuler},
		func(step int, _ float64, x []float64) {
			if step == 20 {
				want = append([]float64(nil), x...)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the expansion at (xg, xl): ψ = [1, ξG, ξL] for Hermite
	// order 1.
	psi := make([]float64, basis.Size())
	basis.EvalAll([]float64{xg, xl}, psi)
	for i := 0; i < sys.N; i++ {
		got := 0.0
		for m := range psi {
			got += last.coeffs[m][i] * psi[m]
		}
		if math.Abs(got-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("node %d: PCE %g vs deterministic %g", i, got, want[i])
		}
	}
}

func TestDecoupledEqualsCoupled(t *testing.T) {
	nl := smallGrid()
	for i := range nl.Resistors {
		nl.Resistors[i].OnDie = false
	}
	for i := range nl.Pads {
		nl.Pads[i].OnDie = false
	}
	for i := range nl.Caps {
		nl.Caps[i].GateFrac = 0
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 15}
	mean1, var1, res1 := runGalerkin(t, sys, 2, opts)
	optsC := opts
	optsC.ForceCoupled = true
	mean2, var2, res2 := runGalerkin(t, sys, 2, optsC)
	if !res1.Decoupled || res2.Decoupled {
		t.Fatalf("path selection wrong: %v %v", res1.Decoupled, res2.Decoupled)
	}
	for s := range mean1 {
		for i := range mean1[s] {
			if math.Abs(mean1[s][i]-mean2[s][i]) > 1e-10 {
				t.Fatalf("means differ at step %d node %d", s, i)
			}
			if math.Abs(var1[s][i]-var2[s][i]) > 1e-12 {
				t.Fatalf("variances differ at step %d node %d", s, i)
			}
		}
	}
}

func TestAssembledMatricesSymmetric(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	basis := pce.NewHermiteBasis(2, 2)
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}
	gh := gsys.AssembleG()
	ch := gsys.AssembleC()
	if !gh.IsSymmetric(1e-10) {
		t.Error("G̃ not symmetric")
	}
	if !ch.IsSymmetric(1e-20) {
		t.Error("C̃ not symmetric")
	}
	if gh.Rows != 54 {
		t.Errorf("G̃ is %dx%d, want 54", gh.Rows, gh.Cols)
	}
	// Block (0,0) of G̃ is Ga; block (0,1) is Gg (Hermite coupling 1).
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if math.Abs(gh.At(i, j)-sys.Ga.At(i, j)) > 1e-12 {
				t.Fatalf("block (0,0) != Ga at (%d,%d)", i, j)
			}
			if math.Abs(gh.At(i, 9+j)-sys.GSens[mna.DimG].At(i, j)) > 1e-12 {
				t.Fatalf("block (0,1) != Gg at (%d,%d)", i, j)
			}
		}
	}
}

func TestOrderingOptions(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 5}
	var ref [][]float64
	for _, ord := range []order.Method{order.MethodAMD, order.MethodND, order.MethodRCM, order.MethodMD, order.MethodNatural} {
		opts.Ordering = ord
		mean, _, _ := runGalerkin(t, sys, 2, opts)
		if ref == nil {
			ref = mean
			continue
		}
		for s := range mean {
			for i := range mean[s] {
				if math.Abs(mean[s][i]-ref[s][i]) > 1e-9 {
					t.Fatalf("%v: solution differs at step %d node %d", ord, s, i)
				}
			}
		}
	}
}

func TestForceLU(t *testing.T) {
	// The scalar ladder's LU rung takes over when its Cholesky rung
	// rejects a matrix that is not positive definite.
	a := sparse.FromDense([][]float64{{0, 1}, {1, 0}}) // not PD, invertible
	lad := numguard.NewLadder("step", numguard.Config{}, a, a.NormInf(),
		scalarRungs(a, nil, nil, 1, numguard.Config{}, false, nil),
		&numguard.Report{})
	x := make([]float64, 2)
	if err := lad.Solve(0, x, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if lad.Rung() != "lu" {
		t.Errorf("factorizer %q, want lu", lad.Rung())
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("LU fallback solve wrong: %v", x)
	}
}

// TestValidateRejectsBadSystems checks the dimension checks and the
// excitation's shape invariant: source 0 alone weights the mean block
// and every other block draws on at most one source.
func TestValidateRejectsBadSystems(t *testing.T) {
	basis := pce.NewHermiteBasis(2, 2)
	b := basis.Size()
	// good has three sources: the mean, one weighting block 1 and one
	// weighting blocks 2 and 3.
	good := func() *System {
		w := alloc2(3, b)
		w[0][0], w[1][1], w[2][2], w[2][3] = 1, 0.5, 0.25, 2
		return &System{
			N: 3, Basis: basis,
			GTerms:  []Term{{Coupling: basis.CouplingIdentity(), A: sparse.Identity(3)}},
			Sources: func(float64, [][]float64) {},
			Weights: w,
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(s *System)
	}{
		{"zero-node system", func(s *System) { s.N = 0 }},
		{"system without G terms", func(s *System) { s.GTerms = nil }},
		{"mis-sized coupling", func(s *System) { s.GTerms[0].Coupling = sparse.Identity(5) }},
		{"nil Sources", func(s *System) { s.Sources = nil }},
		{"system without source weights", func(s *System) { s.Weights = nil }},
		{"weight row of length B-1", func(s *System) { s.Weights[1] = s.Weights[1][:b-1] }},
		{"weight row of length B+1", func(s *System) { s.Weights[2] = append(s.Weights[2], 0) }},
		{"block 3 weighted by two sources", func(s *System) { s.Weights[1][3] = 1 }},
		{"block 1 weighted by source 0 too", func(s *System) { s.Weights[0][1] = 1 }},
		{"source 2 weighting the mean in place of source 0", func(s *System) { s.Weights[0][0], s.Weights[2][0] = 0, 1 }},
	} {
		s := good()
		tc.edit(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestIterativePathMatchesDirect runs a window CG serves to the end
// (an off-die grid: its variation is not separable) and checks it
// against the block oracle stepped once per step: every solve on the
// cadence true-residual verified, CG iterations counted, moments within
// CG's tolerance of the direct answer.
func TestIterativePathMatchesDirect(t *testing.T) {
	gsys := mediumOffDieSystem(t)
	opts := Options{Step: 1e-10, Steps: 20}
	refMean, refVar := snapMoments(blockDirect(t, gsys, opts))
	opts.Obs = obs.New("test")
	snaps, res := collectCoeffs(t, gsys, opts)
	if res.Factorer != "cg+mean-precond" {
		t.Fatalf("factorer %q, want CG for the whole window", res.Factorer)
	}
	cgIters := opts.Obs.Registry().Counter("galerkin.cg_iterations_total").Value()
	if cgIters == 0 {
		t.Error("no CG iterations recorded")
	}
	rep := res.Guard()
	// DC, step 1, then every 8th step.
	if rep.Verified != 4 || rep.MaxResidual > 1e-8 || !rep.Healthy() {
		t.Errorf("verification: %s", rep.Summary())
	}
	t.Logf("%d CG iterations over %d steps; %s", cgIters, opts.Steps, rep.Summary())
	mean, variance := snapMoments(snaps)
	assertMomentsClose(t, "CG window", mean, variance, refMean, refVar)
}

// TestEq14VariableCombination verifies the paper's Eq. 14 claim: for a
// linear conductance model where the W and T perturbation matrices are
// scalings of Ga, the separated three-variable (ξW, ξT, ξL) Galerkin
// solution has exactly the same mean and variance as the reduced
// two-variable system with the combined geometry variable
// ξG = (d·ξW + e·ξT)/√(d²+e²), KG = √(KW²+KT²) — total-degree Hermite
// spaces are rotation invariant.
func TestEq14VariableCombination(t *testing.T) {
	nl := smallGrid()
	spec3 := mna.DefaultThreeVarSpec()
	sys3, err := mna.BuildThreeVar(nl, spec3)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := mna.Build(nl, spec3.Combine())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 20}
	// Two-variable run.
	mean2, var2, _ := runGalerkin(t, sys2, 2, opts)
	// Three-variable run.
	mean3, var3, _ := runGalerkin(t, sys3, 2, opts)
	for s := 0; s <= opts.Steps; s++ {
		for i := 0; i < sys3.N; i++ {
			if d := math.Abs(mean2[s][i] - mean3[s][i]); d > 1e-10 {
				t.Fatalf("Eq. 14 mean mismatch at step %d node %d: %g", s, i, d)
			}
			if d := math.Abs(var2[s][i] - var3[s][i]); d > 1e-12 {
				t.Fatalf("Eq. 14 variance mismatch at step %d node %d: %g vs %g",
					s, i, var2[s][i], var3[s][i])
			}
		}
	}
}

// TestThreeVarRealizeConsistency checks that the separated model's
// sampled realizations match the combined model's when evaluated at the
// corresponding ξG.
func TestThreeVarRealizeConsistency(t *testing.T) {
	nl := smallGrid()
	spec3 := mna.DefaultThreeVarSpec()
	sys3, err := mna.BuildThreeVar(nl, spec3)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := mna.Build(nl, spec3.Combine())
	if err != nil {
		t.Fatal(err)
	}
	xiW, xiT, xiL := 0.8, -1.1, 0.4
	kg := spec3.Combine().KG
	xiG := (spec3.KW*xiW + spec3.KT*xiT) / kg
	g3, c3, _ := sys3.Realize([]float64{xiW, xiT, xiL})
	g2, c2, _ := sys2.Realize([]float64{xiG, xiL})
	d := sparse.Add(1, g3, -1, g2)
	for _, v := range d.Val {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("realized G differs by %g", v)
		}
	}
	dc := sparse.Add(1, c3, -1, c2)
	for _, v := range dc.Val {
		if math.Abs(v) > 1e-24 {
			t.Fatalf("realized C differs by %g", v)
		}
	}
}

// TestCorrelatedMatchesEquivalentCombined verifies the §5 PCA route:
// with W and T correlated at coefficient ρ (and Leff independent), the
// response statistics must equal those of the combined two-variable
// model with KG_eff = √(σW² + σT² + 2ρσWσT) — the variance of the sum
// of correlated Gaussians.
func TestCorrelatedMatchesEquivalentCombined(t *testing.T) {
	nl := smallGrid()
	sW, sT, sL := 0.20/3, 0.15/3, 0.20/3
	rho := 0.6
	cov := [][]float64{
		{sW * sW, rho * sW * sT, 0},
		{rho * sW * sT, sT * sT, 0},
		{0, 0, sL * sL},
	}
	corr, err := mna.BuildCorrelated(nl, cov)
	if err != nil {
		t.Fatal(err)
	}
	kgEff := math.Sqrt(sW*sW + sT*sT + 2*rho*sW*sT)
	comb, err := mna.Build(nl, mna.VariationSpec{KG: kgEff, KCL: sL, KIL: sL})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 20}
	mean2, var2, _ := runGalerkin(t, comb, 2, opts)

	mean3, var3, _ := runGalerkin(t, corr, 2, opts)
	for s := 0; s <= opts.Steps; s++ {
		for i := 0; i < corr.N; i++ {
			if d := math.Abs(mean2[s][i] - mean3[s][i]); d > 1e-9 {
				t.Fatalf("correlated mean mismatch at step %d node %d: %g", s, i, d)
			}
			if d := math.Abs(var2[s][i] - var3[s][i]); d > 1e-11 {
				t.Fatalf("correlated variance mismatch at step %d node %d: %g vs %g",
					s, i, var2[s][i], var3[s][i])
			}
		}
	}
}

// TestCorrelatedDiagonalEqualsThreeVar: a diagonal covariance must
// reproduce the independent three-variable model (up to principal-axis
// permutation, which leaves moments unchanged).
func TestCorrelatedDiagonalEqualsThreeVar(t *testing.T) {
	nl := smallGrid()
	spec3 := mna.DefaultThreeVarSpec()
	cov := [][]float64{
		{spec3.KW * spec3.KW, 0, 0},
		{0, spec3.KT * spec3.KT, 0},
		{0, 0, spec3.KCL * spec3.KCL},
	}
	// Note: the three-var model uses KCL for C and KIL for currents;
	// the correlated model ties both to δL. Use matching values.
	corr, err := mna.BuildCorrelated(nl, cov)
	if err != nil {
		t.Fatal(err)
	}
	sys3, err := mna.BuildThreeVar(nl, mna.ThreeVarSpec{
		KW: spec3.KW, KT: spec3.KT, KCL: spec3.KCL, KIL: spec3.KCL,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 15}
	mc, vc, _ := runGalerkin(t, corr, 2, opts)
	m3, v3, _ := runGalerkin(t, sys3, 2, opts)
	for s := range mc {
		for i := range mc[s] {
			if d := math.Abs(mc[s][i] - m3[s][i]); d > 1e-10 {
				t.Fatalf("diagonal-cov mean mismatch: %g", d)
			}
			if d := math.Abs(vc[s][i] - v3[s][i]); d > 1e-12 {
				t.Fatalf("diagonal-cov variance mismatch: %g", d)
			}
		}
	}
}

// TestForceLUMatchesBlockCholesky checks that ForceLU takes every
// Cholesky rung off the coupled path and changes the answer by
// rounding only: on a CG window both preconditioner factors are LU, on
// a handoff window the block ladder starts at LU as well. Neither is
// an escalation.
func TestForceLUMatchesBlockCholesky(t *testing.T) {
	sys := excitedGrid(t)
	for _, tc := range []struct {
		steps        int
		want, wantLU string
	}{
		{3, "cg+mean-precond", "cg+mean-precond"},
		{40, "block-cholesky", "lu"},
	} {
		opts := Options{Step: tStep, Steps: tc.steps, Obs: obs.New("cholesky")}
		meanD, varD, resD := runGalerkin(t, sys, 2, opts)
		trD := opts.Obs
		opts.ForceLU, opts.Obs = true, obs.New("lu")
		meanL, varL, resL := runGalerkin(t, sys, 2, opts)
		if resD.Factorer != tc.want || resL.Factorer != tc.wantLU {
			t.Fatalf("%d steps: paths %s / %s, want %s / %s", tc.steps, resD.Factorer, resL.Factorer, tc.want, tc.wantLU)
		}
		if d, l := spanAttr(trD, "factor", "rung"), spanAttr(opts.Obs, "factor", "rung"); d != "supernodal" || l != "lu" {
			t.Errorf("%d steps: preconditioner rungs %s / %s, want supernodal / lu", tc.steps, d, l)
		}
		if !resD.Guard().Healthy() || !resL.Guard().Healthy() {
			t.Errorf("%d steps: unhealthy: %s / %s", tc.steps, resD.Guard().Summary(), resL.Guard().Summary())
		}
		if d := maxAbsDiff(meanD, meanL); d > 1e-8 {
			t.Errorf("%d steps: LU path means differ by %g", tc.steps, d)
		}
		if d := maxAbsDiff(varD, varL); d > 1e-10 {
			t.Errorf("%d steps: LU path variances differ by %g", tc.steps, d)
		}
	}
}

// TestVisitBlocksContract confirms the documented contract: the visit
// callback's slices are solver state that must be copied if retained.
// The window runs into the pulse (it starts at step 4), so the final
// coefficients differ from the DC ones.
func TestVisitBlocksContract(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	basis := pce.NewHermiteBasis(2, 2)
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}
	var first [][]float64
	var firstCopy, lastCopy [][]float64
	_, err = Solve(gsys, Options{Step: tStep, Steps: tSteps}, func(step int, _ float64, coeffs [][]float64) {
		snap := alloc2(len(coeffs), sys.N)
		for m := range coeffs {
			copy(snap[m], coeffs[m])
		}
		if step == 0 {
			first, firstCopy = coeffs, snap
		}
		lastCopy = snap
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the run, the retained views hold the *final* coefficients,
	// not the step-0 ones — callers must copy.
	same := true
	for m := range first {
		for i := range first[m] {
			if first[m][i] != firstCopy[m][i] {
				same = false
			}
			if first[m][i] != lastCopy[m][i] {
				t.Fatalf("retained view [%d][%d] = %g, want the final step's %g", m, i, first[m][i], lastCopy[m][i])
			}
		}
	}
	if same {
		t.Skip("solver buffers happened to be equal; contract untestable on this input")
	}
}

// TestQuadraticOperatorModel exercises the general (nonlinear-in-ξ)
// coupling path: G(ξ) = Ga + Gg·ξG + Gq·(ξG²−1) — the paper's §5 remark
// that "there are no limitations on the specific model to be chosen".
// Validated against a tensor-quadrature reference.
func TestQuadraticOperatorModel(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	basis := pce.NewHermiteBasis(2, 3)
	// Quadratic sensitivity: a fraction of the linear one.
	gq := sys.GSens[mna.DimG].Clone().Scale(0.3)
	quadCoeffs, err := basis.ProjectFunc(func(xi []float64) float64 {
		return xi[0]*xi[0] - 1
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}
	gsys.GTerms = append(gsys.GTerms, Term{
		Coupling: basis.CouplingExpansion(quadCoeffs),
		A:        gq,
	})
	opts := Options{Step: tStep, Steps: 15}
	nsteps := opts.Steps + 1
	mean := alloc2(nsteps, sys.N)
	variance := alloc2(nsteps, sys.N)
	if _, err := Solve(gsys, opts, func(step int, _ float64, coeffs [][]float64) {
		for i := 0; i < sys.N; i++ {
			mean[step][i] = coeffs[0][i]
			v := 0.0
			for m := 1; m < basis.Size(); m++ {
				v += coeffs[m][i] * coeffs[m][i]
			}
			variance[step][i] = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Quadrature reference with the quadratic realization.
	rule, err := quad.GaussHermite(8)
	if err != nil {
		t.Fatal(err)
	}
	refMean := alloc2(nsteps, sys.N)
	refM2 := alloc2(nsteps, sys.N)
	for a, xg := range rule.Nodes {
		for b2, xl := range rule.Nodes {
			w := rule.Weights[a] * rule.Weights[b2]
			g, c, rhs := sys.Realize([]float64{xg, xl})
			g = sparse.Add(1, g, xg*xg-1, gq)
			err := transient.Run(g, c, rhs,
				transient.Options{Step: tStep, Steps: opts.Steps, Method: transient.BackwardEuler},
				func(step int, _ float64, x []float64) {
					for i, xi := range x {
						refMean[step][i] += w * xi
						refM2[step][i] += w * xi * xi
					}
				})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s <= opts.Steps; s++ {
		for i := 0; i < sys.N; i++ {
			if d := math.Abs(mean[s][i] - refMean[s][i]); d > 5e-5 {
				t.Fatalf("quadratic-model mean mismatch at step %d node %d: %g", s, i, d)
			}
			refVar := refM2[s][i] - refMean[s][i]*refMean[s][i]
			if refVar > 1e-11 {
				if rel := math.Abs(variance[s][i]-refVar) / refVar; rel > 0.08 {
					t.Fatalf("quadratic-model variance at step %d node %d: rel %g", s, i, rel)
				}
			}
		}
	}
}

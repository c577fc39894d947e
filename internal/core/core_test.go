package core

import (
	"math"
	"testing"

	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/poly"
	"opera/internal/randvar"
)

func uniformFamilies() []poly.Family {
	return []poly.Family{poly.Legendre{}, poly.Legendre{}}
}

func testSystem(t *testing.T, nodes int, seed int64) (*mna.System, *netlist.Netlist) {
	t.Helper()
	nl, err := grid.Build(grid.DefaultSpec(nodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sys, nl
}

func defaultOpts() Options {
	return Options{Order: 2, Step: 1e-10, Steps: 20}
}

func TestAnalyzeAgainstMonteCarlo(t *testing.T) {
	sys, _ := testSystem(t, 300, 17)
	opts := defaultOpts()
	op, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := RunMC(sys, opts, 600, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := NominalRun(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := CompareWithMC(op, mc, nominal)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("accuracy: µ err avg %.4f%% max %.4f%%, σ err avg %.2f%% max %.2f%%, ±3σ %.1f%% of µ0, µ-shift %.4f%% VDD",
		acc.AvgErrMeanPct, acc.MaxErrMeanPct, acc.AvgErrStdPct, acc.MaxErrStdPct,
		acc.ThreeSigmaPctOfNominal, acc.MeanShiftPctVDD)
	// Paper Table 1 ballpark: mean errors well below 1%, σ errors below
	// ~20% (their max is 18.4%); with 600 samples MC noise alone is a
	// few percent.
	if acc.AvgErrMeanPct > 0.5 {
		t.Errorf("average mean error %g%% too large", acc.AvgErrMeanPct)
	}
	if acc.AvgErrStdPct > 12 {
		t.Errorf("average std error %g%% too large", acc.AvgErrStdPct)
	}
	// §6: the mean shift against the nominal response is negligible.
	if acc.MeanShiftPctVDD > 0.2 {
		t.Errorf("mean shift %g%% of VDD should be negligible", acc.MeanShiftPctVDD)
	}
	// §6: ±3σ lands around ±35% of the nominal drop (loose band).
	if acc.ThreeSigmaPctOfNominal < 10 || acc.ThreeSigmaPctOfNominal > 70 {
		t.Errorf("±3σ/µ0 = %g%%, expected tens of percent", acc.ThreeSigmaPctOfNominal)
	}
}

func TestTrackedExpansionsMatchMoments(t *testing.T) {
	sys, _ := testSystem(t, 200, 5)
	opts := defaultOpts()
	node := 3
	opts.TrackNodes = []int{node}
	op, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	exps := op.Tracked[node]
	if len(exps) != opts.Steps+1 {
		t.Fatalf("tracked %d steps", len(exps))
	}
	for s, e := range exps {
		if math.Abs(e.Mean()-op.Mean[s][node]) > 1e-12 {
			t.Fatalf("step %d: expansion mean %g vs result %g", s, e.Mean(), op.Mean[s][node])
		}
		if math.Abs(e.Variance()-op.Variance[s][node]) > 1e-15 {
			t.Fatalf("step %d: expansion variance mismatch", s)
		}
	}
}

func TestDistributionMatchesMCSamples(t *testing.T) {
	// The Figures 1–2 experiment in miniature: distribution of the drop
	// at the worst node from sampling the OPERA expansion vs Monte Carlo
	// traces — the KS distance must be small.
	sys, _ := testSystem(t, 200, 23)
	opts := defaultOpts()
	op, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	node, step := op.MaxMeanDropNode()
	opts.TrackNodes = []int{node}
	op, err = Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := RunMC(sys, opts, 800, 7, []int{node})
	if err != nil {
		t.Fatal(err)
	}
	mcVals := make([]float64, len(mc.Traces))
	for k := range mc.Traces {
		mcVals[k] = mc.Traces[k][step][0]
	}
	rng := randvar.NewStream(123, 0)
	opVals := op.Tracked[node][step].Sample(rng, 4000)
	ks := randvar.KolmogorovSmirnov(mcVals, opVals)
	t.Logf("KS distance at node %d step %d: %.4f", node, step, ks)
	// For matching distributions with 800 samples, KS ~ 1.36·sqrt(1/800
	// + 1/4000) ≈ 0.053 at the 5% level; allow margin for truncation.
	if ks > 0.08 {
		t.Errorf("KS distance %g too large: distributions disagree", ks)
	}
}

func TestMaxMeanDropNode(t *testing.T) {
	sys, _ := testSystem(t, 150, 31)
	op, err := Analyze(sys, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	node, step := op.MaxMeanDropNode()
	if node < 0 || node >= op.N || step < 0 || step > op.Steps {
		t.Fatalf("MaxMeanDropNode out of range: %d, %d", node, step)
	}
	drop := op.VDD - op.Mean[step][node]
	for s := range op.Mean {
		for i := range op.Mean[s] {
			if op.VDD-op.Mean[s][i] > drop+1e-12 {
				t.Fatalf("found larger drop at (%d,%d)", s, i)
			}
		}
	}
	// Calibration targets 8% of VDD at the worst node; mean drop under
	// variations stays in that neighborhood.
	if frac := drop / op.VDD; frac < 0.02 || frac > 0.12 {
		t.Errorf("worst mean drop fraction %g outside the calibrated band", frac)
	}
}

func TestLeakageSpecialCase(t *testing.T) {
	_, nl := testSystem(t, 200, 41)
	opts := LeakageOptions{
		Regions:   4, // DefaultSpec uses Regions=2 → 4 region tags
		SigmaLogI: 0.6,
		Order:     3,
		Step:      1e-10,
		Steps:     15,
	}
	op, err := AnalyzeLeakage(nl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !op.Galerkin.Decoupled {
		t.Error("special case should take the decoupled Eq. 27 path")
	}
	if op.Galerkin.AugmentedN != op.N {
		t.Errorf("decoupled path should factor an n-sized system, got %d", op.Galerkin.AugmentedN)
	}
	mc, err := RunLeakageMC(nl, opts, 1500, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Compare moments at the final step over all nodes.
	s := opts.Steps
	maxStd := 0.0
	for i := 0; i < op.N; i++ {
		if sd := math.Sqrt(mc.Variance[s][i]); sd > maxStd {
			maxStd = sd
		}
	}
	for i := 0; i < op.N; i++ {
		if e := math.Abs(op.Mean[s][i] - mc.Mean[s][i]); e > 5e-4 {
			t.Fatalf("node %d mean: OPERA %g vs MC %g", i, op.Mean[s][i], mc.Mean[s][i])
		}
		sdMC := math.Sqrt(mc.Variance[s][i])
		if sdMC > 0.05*maxStd {
			sdOp := math.Sqrt(op.Variance[s][i])
			if rel := math.Abs(sdOp-sdMC) / sdMC; rel > 0.15 {
				t.Fatalf("node %d std: OPERA %g vs MC %g (rel %g)", i, sdOp, sdMC, rel)
			}
		}
	}
}

func TestLeakageVarianceMatchesAnalyticTruncation(t *testing.T) {
	// For a purely linear system with lognormal RHS multipliers, the
	// order-p OPERA variance equals Σ_{k=1..p} σ^{2k}/k! times the
	// squared sensitivity — verify via the multiplier's own expansion:
	// tracked at a node fed by a single region. Here we check the
	// aggregate: OPERA variance with order 4 ≈ order 3 + next term,
	// monotone increasing toward the exact lognormal value.
	_, nl := testSystem(t, 150, 53)
	base := LeakageOptions{Regions: 4, SigmaLogI: 0.8, Step: 1e-10, Steps: 8}
	variances := make([]float64, 0, 3)
	for _, p := range []int{1, 2, 3} {
		o := base
		o.Order = p
		res, err := AnalyzeLeakage(nl, o)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, v := range res.Variance[base.Steps] {
			total += v
		}
		variances = append(variances, total)
	}
	if !(variances[0] < variances[1] && variances[1] < variances[2]) {
		t.Errorf("truncated lognormal variance should increase with order: %v", variances)
	}
	// The order-k increment adds the series term σ^{2k}/k! (scaled by
	// the squared region sensitivities), so going 1→2 adds σ⁴/2 and
	// 2→3 adds σ⁶/6: the increment ratio is exactly σ²/3.
	inc1 := variances[1] - variances[0]
	inc2 := variances[2] - variances[1]
	sigma := base.SigmaLogI
	want := sigma * sigma / 3
	ratio := inc2 / inc1
	if math.Abs(ratio-want) > 1e-6*want {
		t.Errorf("variance increment ratio %g, want σ²/3 = %g", ratio, want)
	}
}

func TestNonGaussianFamilies(t *testing.T) {
	// Legendre (uniform) variations run through the same machinery.
	sys, _ := testSystem(t, 120, 61)
	opts := defaultOpts()
	opts.Families = uniformFamilies()
	op, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := range op.Mean {
		for i := range op.Mean[s] {
			if op.Mean[s][i] <= 0 || op.Mean[s][i] > op.VDD+1e-9 {
				t.Fatalf("unphysical mean %g", op.Mean[s][i])
			}
			if op.Variance[s][i] < 0 {
				t.Fatalf("negative variance")
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	sys, _ := testSystem(t, 100, 3)
	if _, err := Analyze(sys, Options{Order: -1, Step: 1e-10, Steps: 5}); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := Analyze(sys, Options{Order: 2, Step: 0, Steps: 5}); err == nil {
		t.Error("zero step accepted")
	}
	opts := defaultOpts()
	opts.TrackNodes = []int{-3}
	if _, err := Analyze(sys, opts); err == nil {
		t.Error("bad tracked node accepted")
	}
}

func TestCompareWithMCShapeMismatch(t *testing.T) {
	sys, _ := testSystem(t, 100, 3)
	op, err := Analyze(sys, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	short := defaultOpts()
	short.Steps = 5
	mc, _, err := RunMC(sys, short, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareWithMC(op, mc, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestAnalyzeAdaptive(t *testing.T) {
	sys, _ := testSystem(t, 200, 71)
	res, err := AnalyzeAdaptive(sys, AdaptiveOptions{
		Base: Options{Step: 1e-10, Steps: 10},
		Tol:  0.02, MaxOrder: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("adaptive analysis did not converge: %+v", res.OrdersTried)
	}
	if len(res.OrdersTried) < 2 {
		t.Fatalf("expected at least two orders, got %d", len(res.OrdersTried))
	}
	// The realistic variation magnitudes converge by order 2-3.
	final := res.OrdersTried[len(res.OrdersTried)-1]
	if final.Order > 3 {
		t.Errorf("converged only at order %d", final.Order)
	}
	if final.RelChange >= 0.02 {
		t.Errorf("final relative change %g above tolerance", final.RelChange)
	}
	// The embedded result is the final order's analysis.
	if res.Basis.Order != final.Order {
		t.Errorf("result order %d != final tried %d", res.Basis.Order, final.Order)
	}
}

func TestAnalyzeAdaptiveValidation(t *testing.T) {
	sys, _ := testSystem(t, 100, 3)
	if _, err := AnalyzeAdaptive(sys, AdaptiveOptions{
		Base: Options{Order: 5, Step: 1e-10, Steps: 5}, MaxOrder: 3,
	}); err == nil {
		t.Error("start order above MaxOrder accepted")
	}
}

func TestAnalyzeReducedMatchesFull(t *testing.T) {
	sys, _ := testSystem(t, 400, 19)
	opts := defaultOpts()
	full, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := full.MaxMeanDropNode()
	ports := []int{node, 0}
	red, err := AnalyzeReduced(sys, ports, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if red.K >= sys.N/2 {
		t.Errorf("reduction barely reduced: K = %d of %d", red.K, sys.N)
	}
	for s := 0; s <= opts.Steps; s++ {
		for j, p := range ports {
			if d := math.Abs(red.Mean[s][j] - full.Mean[s][p]); d > 2e-4 {
				t.Fatalf("port %d step %d: reduced mean %g vs full %g", p, s, red.Mean[s][j], full.Mean[s][p])
			}
			sdF := math.Sqrt(full.Variance[s][p])
			sdR := math.Sqrt(red.Variance[s][j])
			if sdF > 1e-4 {
				if rel := math.Abs(sdR-sdF) / sdF; rel > 0.05 {
					t.Fatalf("port %d step %d: reduced sigma %g vs full %g (rel %g)", p, s, sdR, sdF, rel)
				}
			}
		}
	}
	t.Logf("reduced K=%d (from %d nodes): reduce %.3fs + solve %.3fs vs full %.3fs",
		red.K, sys.N, red.ReduceTime.Seconds(), red.SolveTime.Seconds(), full.Elapsed.Seconds())
}

func TestAnalyzeReducedValidation(t *testing.T) {
	sys, _ := testSystem(t, 100, 3)
	if _, err := AnalyzeReduced(sys, nil, 4, defaultOpts()); err == nil {
		t.Error("empty port list accepted")
	}
	if _, err := AnalyzeReduced(sys, []int{0}, 4, Options{Order: 2}); err == nil {
		t.Error("invalid stepping accepted")
	}
}

// TestEveryModelThroughAnalyze runs each builder's system through the
// one Analyze entry point.
func TestEveryModelThroughAnalyze(t *testing.T) {
	_, nl := testSystem(t, 200, 83)
	opts := Options{Order: 2, Step: 1e-10, Steps: 8}
	analyze := func(sys *mna.System, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	three := analyze(mna.BuildThreeVar(nl, mna.DefaultThreeVarSpec()))
	// Eq. 14: the combined model gives identical moments.
	comb := analyze(mna.Build(nl, mna.DefaultThreeVarSpec().Combine()))
	for s := range comb.Mean {
		for i := range comb.Mean[s] {
			if d := math.Abs(comb.Mean[s][i] - three.Mean[s][i]); d > 1e-9 {
				t.Fatalf("three-var model mean mismatch %g", d)
			}
		}
	}

	k := 0.25 / 3
	cov := [][]float64{{k * k, 0, 0}, {0, 1e-6, 0}, {0, 0, 1e-6}}
	corr := analyze(mna.BuildCorrelated(nl, cov))
	if corr.N != comb.N {
		t.Fatal("correlated model size mismatch")
	}

	spatial := analyze(mna.BuildSpatial(nl, mna.SpatialSpec{
		RegionsPerAxis: 2, KG: k, KCL: 0.2 / 3, KIL: 0.2 / 3,
		CorrLength: 1, MaxDims: 2,
	}))
	for s := range spatial.Mean {
		for i := range spatial.Mean[s] {
			v := spatial.Mean[s][i]
			if v <= 0 || v > spatial.VDD+1e-9 {
				t.Fatalf("spatial model unphysical mean %g", v)
			}
			if spatial.Variance[s][i] < 0 {
				t.Fatal("negative variance")
			}
		}
	}

	// A basis family per variable: the spatial system has four.
	opts.Families = uniformFamilies()
	sys, err := mna.BuildSpatial(nl, mna.SpatialSpec{
		RegionsPerAxis: 2, KG: k, KCL: 0.2 / 3, KIL: 0.2 / 3,
		CorrLength: 1, MaxDims: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(sys, opts); err == nil {
		t.Error("two families accepted for a four-variable system")
	}
}

// TestOtherModelsAgainstMonteCarlo gives the three-variable, correlated
// and spatial models the Monte Carlo reference the two-variable model
// has in TestAnalyzeAgainstMonteCarlo, with the same thresholds.
func TestOtherModelsAgainstMonteCarlo(t *testing.T) {
	_, nl := testSystem(t, 300, 17)
	opts := defaultOpts()
	sW, sT, sL := 0.20/3, 0.15/3, 0.20/3
	rho := 0.6
	cov := [][]float64{
		{sW * sW, rho * sW * sT, 0},
		{rho * sW * sT, sT * sT, 0},
		{0, 0, sL * sL},
	}
	for _, tc := range []struct {
		name  string
		build func() (*mna.System, error)
	}{
		{"three-variable", func() (*mna.System, error) { return mna.BuildThreeVar(nl, mna.DefaultThreeVarSpec()) }},
		{"correlated", func() (*mna.System, error) { return mna.BuildCorrelated(nl, cov) }},
		{"spatial", func() (*mna.System, error) {
			return mna.BuildSpatial(nl, mna.SpatialSpec{
				RegionsPerAxis: 2, KG: 0.25 / 3, KCL: 0.20 / 3, KIL: 0.20 / 3,
				CorrLength: 1, MaxDims: 2,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			op, err := Analyze(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			mc, _, err := RunMC(sys, opts, 600, 99, nil)
			if err != nil {
				t.Fatal(err)
			}
			nominal, err := NominalRun(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := CompareWithMC(op, mc, nominal)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("K=%d: µ err avg %.4f%%, σ err avg %.2f%%, ±3σ %.1f%% of µ0, µ-shift %.4f%% VDD",
				sys.Dims(), acc.AvgErrMeanPct, acc.AvgErrStdPct, acc.ThreeSigmaPctOfNominal, acc.MeanShiftPctVDD)
			if acc.AvgErrMeanPct > 0.5 {
				t.Errorf("average mean error %g%% too large", acc.AvgErrMeanPct)
			}
			if acc.AvgErrStdPct > 12 {
				t.Errorf("average std error %g%% too large", acc.AvgErrStdPct)
			}
			if acc.MeanShiftPctVDD > 0.2 {
				t.Errorf("mean shift %g%% of VDD should be negligible", acc.MeanShiftPctVDD)
			}
			if acc.ThreeSigmaPctOfNominal < 10 || acc.ThreeSigmaPctOfNominal > 70 {
				t.Errorf("±3σ/µ0 = %g%%, expected tens of percent", acc.ThreeSigmaPctOfNominal)
			}
		})
	}
}

func TestAnalyzeNetlistAndDropPercent(t *testing.T) {
	_, nl := testSystem(t, 150, 91)
	opts := Options{Order: 2, Step: 1e-10, Steps: 6}
	res, err := AnalyzeNetlist(nl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != nl.NumNodes {
		t.Errorf("N = %d, want %d", res.N, nl.NumNodes)
	}
	// DropPercent inverts correctly: full VDD → 0%, 0 V → 100%.
	if d := res.DropPercent(res.VDD); math.Abs(d) > 1e-12 {
		t.Errorf("drop at VDD = %g", d)
	}
	if d := res.DropPercent(0); math.Abs(d-100) > 1e-12 {
		t.Errorf("drop at 0 = %g", d)
	}
	// Custom variation spec flows through.
	custom := mna.VariationSpec{KG: 0.01, KCL: 0.01, KIL: 0.01}
	opts.Variation = &custom
	small, err := AnalyzeNetlist(nl, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny sensitivities → much smaller variance than the default spec.
	var vDefault, vSmall float64
	for i := range res.Variance[opts.Steps] {
		vDefault += res.Variance[opts.Steps][i]
		vSmall += small.Variance[opts.Steps][i]
	}
	if vSmall >= vDefault/10 {
		t.Errorf("custom small spec variance %g not well below default %g", vSmall, vDefault)
	}
}

func TestLeakageOptionsValidate(t *testing.T) {
	good := LeakageOptions{Regions: 2, SigmaLogI: 0.5, Order: 2, Step: 1e-10, Steps: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []LeakageOptions{
		{Regions: 0, SigmaLogI: 0.5, Order: 2, Step: 1e-10, Steps: 5},
		{Regions: 2, SigmaLogI: 0, Order: 2, Step: 1e-10, Steps: 5},
		{Regions: 2, SigmaLogI: 0.5, Order: 0, Step: 1e-10, Steps: 5},
		{Regions: 2, SigmaLogI: 0.5, Order: 2, Step: 0, Steps: 5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Leakage MC argument validation.
	_, nl := testSystem(t, 100, 3)
	if _, err := RunLeakageMC(nl, good, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := AnalyzeLeakage(nl, LeakageOptions{Regions: 1, SigmaLogI: 0.5, Order: 2, Step: 1e-10, Steps: 5}); err == nil {
		t.Error("region tag outside declared count accepted")
	}
}

func TestSobolAttributionOnGrid(t *testing.T) {
	// On the default grid the geometry and channel shares must be
	// positive and sum (with interactions) to ~1 at the worst node.
	sys, _ := testSystem(t, 200, 95)
	opts := defaultOpts()
	scout, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	node, step := scout.MaxMeanDropNode()
	opts.TrackNodes = []int{node}
	res, err := Analyze(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Tracked[node][step]
	sg := e.SobolFirstOrder(0)
	sl := e.SobolFirstOrder(1)
	si := e.SobolInteraction()
	t.Logf("attribution: ξG %.3f, ξL %.3f, interactions %.3f", sg, sl, si)
	if sg <= 0 || sl <= 0 {
		t.Error("both variation sources should contribute variance")
	}
	if s := sg + sl + si; math.Abs(s-1) > 1e-9 {
		t.Errorf("shares sum to %g (first-order + interactions must partition a 2-dim expansion)", s)
	}
}

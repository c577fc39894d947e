package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/galerkin"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/randvar"
	"opera/internal/sparse"
)

// leakageMCOracle is the sample-by-sample loop RunLeakageMC ran before
// its solves were batched: one sample at a time, its multipliers drawn
// as it starts, one single-vector solve per step. RunLeakageMC must
// reproduce it bit for bit.
func leakageMCOracle(t *testing.T, nl *netlist.Netlist, opts LeakageOptions, samples int, seed int64) (mean, variance [][]float64) {
	t.Helper()
	sys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N
	companion := sparse.Add(1, sys.Ga, 1/opts.Step, sys.Ca)
	perm := order.Permute(opts.Ordering, companion)
	comp, err := factor.CholAnalyzeSupernodal(companion, perm, -1).Factorize(companion, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	gfac, err := factor.CholAnalyzeSupernodal(sys.Ga, perm, -1).Factorize(sys.Ga, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := randvar.NewStream(seed, 0)
	acc := make([][]randvar.Running, opts.Steps+1)
	for s := range acc {
		acc[s] = make([]randvar.Running, n)
	}
	ua, u, x, cx, b := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	multiplier := make([]float64, opts.Regions)
	sigma := opts.SigmaLogI
	rhsAt := func(t float64) {
		sys.RHS(t, ua, nil)
		copy(u, ua)
		for _, src := range nl.Sources {
			if !src.Leakage {
				continue
			}
			iv := src.Wave.At(t)
			u[src.A] += iv
			u[src.A] -= iv * multiplier[src.Region]
		}
	}
	for k := 0; k < samples; k++ {
		for r := range multiplier {
			multiplier[r] = math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
		}
		rhsAt(0)
		gfac.SolveTo(x, u)
		for i, v := range x {
			acc[0][i].Push(v)
		}
		for s := 1; s <= opts.Steps; s++ {
			rhsAt(float64(s) * opts.Step)
			sys.Ca.MulVec(cx, x)
			for i := range b {
				b[i] = cx[i]/opts.Step + u[i]
			}
			comp.SolveTo(x, b)
			for i, v := range x {
				acc[s][i].Push(v)
			}
		}
	}
	mean, variance = alloc2(opts.Steps+1, n), alloc2(opts.Steps+1, n)
	for s := range acc {
		for i := range acc[s] {
			mean[s][i] = acc[s][i].Mean()
			variance[s][i] = acc[s][i].Variance()
		}
	}
	return mean, variance
}

// TestLeakageMCDeterminism checks the batched leakage Monte Carlo at
// Workers 1, 2 and 4 against the sample-by-sample oracle, bit for bit.
// The sample count spans two sample blocks with a ragged tail.
func TestLeakageMCDeterminism(t *testing.T) {
	_, nl := testSystem(t, 200, 41)
	opts := LeakageOptions{Regions: 4, SigmaLogI: 0.6, Order: 3, Step: 1e-10, Steps: 10}
	samples := leakMCBlock + 7
	wantMean, wantVar := leakageMCOracle(t, nl, opts, samples, 19)
	for _, w := range []int{1, 2, 4} {
		o := opts
		o.Workers = w
		mc, err := RunLeakageMC(nl, o, samples, 19)
		if err != nil {
			t.Fatal(err)
		}
		if mc.Samples != samples {
			t.Errorf("workers=%d: Samples = %d, want %d", w, mc.Samples, samples)
		}
		for s := range wantMean {
			for i := range wantMean[s] {
				if math.Float64bits(mc.Mean[s][i]) != math.Float64bits(wantMean[s][i]) ||
					math.Float64bits(mc.Variance[s][i]) != math.Float64bits(wantVar[s][i]) {
					t.Fatalf("workers=%d step %d node %d: mean/variance %.17g/%.17g, oracle %.17g/%.17g",
						w, s, i, mc.Mean[s][i], mc.Variance[s][i], wantMean[s][i], wantVar[s][i])
				}
			}
		}
	}
}

// perColumnLeakage is the reference for the factored decoupled path:
// every chaos column of gsys.RHS solved on its own at every step, one
// SolveTo per column through the supernodal factors the decoupled
// ladders start on (same matrices, same AMD permutation).
func perColumnLeakage(t *testing.T, gsys *galerkin.System, step float64, steps int) [][][]float64 {
	t.Helper()
	n, b := gsys.N, gsys.Basis.Size()
	ga, ca := gsys.GTerms[0].A, gsys.CTerms[0].A
	companion := sparse.Add(1, ga, 1/step, ca)
	perm := order.Permute(order.MethodAMD, companion)
	comp, err := factor.CholAnalyzeSupernodal(companion, perm, -1).Factorize(companion, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	gfac, err := factor.CholAnalyzeSupernodal(ga, perm, -1).Factorize(ga, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, rhs := alloc2(b, n), alloc2(b, n)
	cx, r := make([]float64, n), make([]float64, n)
	snaps := make([][][]float64, steps+1)
	for k := 0; k <= steps; k++ {
		gsys.RHS(float64(k)*step, rhs)
		for m := range x {
			if k == 0 {
				gfac.SolveTo(x[m], rhs[m])
				continue
			}
			ca.MulVec(cx, x[m])
			for i := range r {
				r[i] = rhs[m][i] + cx[i]/step
			}
			comp.SolveTo(x[m], r)
		}
		snaps[k] = alloc2(b, n)
		for m := range x {
			copy(snaps[k][m], x[m])
		}
	}
	return snaps
}

// TestLeakageSourcesMatchPerColumn checks the factored excitation on the
// §5.1 system at orders 2 and 3 over 4 regions: the decoupled path
// solves one source per region plus the mean, and must agree with
// solving every chaos column on its own — every block within 1e-13 of
// the reference relative to its ∞-norm, the mean block bitwise equal,
// blocks no source weights exactly +0 at every step — and be bitwise
// equal at every worker count.
func TestLeakageSourcesMatchPerColumn(t *testing.T) {
	_, nl := testSystem(t, 200, 41)
	for _, p := range []int{2, 3} {
		opts := LeakageOptions{Regions: 4, SigmaLogI: 0.6, Order: p, Step: 1e-10, Steps: 10}
		gsys, _, err := buildLeakageSystem(nl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(gsys.Weights) != 1+opts.Regions {
			t.Fatalf("order %d: %d sources, want the mean plus one per region", p, len(gsys.Weights))
		}
		var unweighted []int
		for m := 0; m < gsys.Basis.Size(); m++ {
			weighted := false
			for _, w := range gsys.Weights {
				weighted = weighted || w[m] != 0
			}
			if !weighted {
				unweighted = append(unweighted, m)
			}
		}
		if len(unweighted) == 0 {
			t.Fatalf("order %d: every block is weighted; the +0 check would be vacuous", p)
		}
		ref := perColumnLeakage(t, gsys, opts.Step, opts.Steps)
		var first [][][]float64
		for _, w := range []int{1, 2, 3, 4, 7} {
			snaps := make([][][]float64, opts.Steps+1)
			res, err := galerkin.Solve(gsys, galerkin.Options{Step: opts.Step, Steps: opts.Steps, Workers: w},
				func(step int, _ float64, coeffs [][]float64) {
					snaps[step] = alloc2(len(coeffs), gsys.N)
					for m := range coeffs {
						copy(snaps[step][m], coeffs[m])
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Decoupled {
				t.Fatalf("order %d workers=%d: decoupled path not taken", p, w)
			}
			if first == nil {
				first = snaps
				checkAgainstPerColumn(t, ref, snaps, unweighted, p)
				continue
			}
			for k := range snaps {
				for m := range snaps[k] {
					for i, v := range snaps[k][m] {
						if math.Float64bits(v) != math.Float64bits(first[k][m][i]) {
							t.Fatalf("order %d workers=%d: step %d block %d node %d = %.17g, workers=1 %.17g",
								p, w, k, m, i, v, first[k][m][i])
						}
					}
				}
			}
		}
	}
}

// checkAgainstPerColumn holds one leakage solve to the per-column
// reference (see TestLeakageSourcesMatchPerColumn).
func checkAgainstPerColumn(t *testing.T, ref, got [][][]float64, unweighted []int, p int) {
	t.Helper()
	for k := range ref {
		for m := range ref[k] {
			var diff, scale float64
			for i, v := range ref[k][m] {
				diff = math.Max(diff, math.Abs(got[k][m][i]-v))
				scale = math.Max(scale, math.Abs(v))
			}
			if diff > 1e-13*scale {
				t.Fatalf("order %d step %d block %d: differs by %.3g relative to its ∞-norm", p, k, m, diff/scale)
			}
		}
		for i, v := range got[k][0] {
			if math.Float64bits(v) != math.Float64bits(ref[k][0][i]) {
				t.Fatalf("order %d step %d node %d: mean %.17g, reference %.17g", p, k, i, v, ref[k][0][i])
			}
		}
		for _, m := range unweighted {
			for i, v := range got[k][m] {
				if math.Float64bits(v) != 0 {
					t.Fatalf("order %d step %d: unweighted block %d node %d = %g, want +0", p, k, m, i, v)
				}
			}
		}
	}
}

// TestLeakageRegionOutsideRange checks that the OPERA and the Monte
// Carlo entry points reject a leakage source whose region tag is
// outside [0, Regions) with the same error, for a tag too large and a
// negative one, instead of indexing past the multipliers.
func TestLeakageRegionOutsideRange(t *testing.T) {
	opts := LeakageOptions{Regions: 2, SigmaLogI: 0.5, Order: 2, Step: 1e-10, Steps: 3}
	tooLarge := func() *netlist.Netlist {
		_, nl := testSystem(t, 300, 3) // four region tags
		return nl
	}
	negative := func() *netlist.Netlist {
		nl := tooLarge()
		for i := range nl.Sources {
			if nl.Sources[i].Leakage {
				nl.Sources[i].Region = min(nl.Sources[i].Region, opts.Regions-1)
			}
		}
		for i := range nl.Sources {
			if nl.Sources[i].Leakage {
				nl.Sources[i].Region = -1
				break
			}
		}
		return nl
	}
	for _, tc := range []struct {
		name, want string
		build      func() *netlist.Netlist
	}{
		{"too large", "outside [0,2)", tooLarge},
		{"negative", "region -1 outside [0,2)", negative},
	} {
		nl := tc.build()
		_, opErr := AnalyzeLeakage(nl, opts)
		_, mcErr := RunLeakageMC(nl, opts, 4, 1)
		if opErr == nil || mcErr == nil {
			t.Fatalf("%s: AnalyzeLeakage error %v, RunLeakageMC error %v; both must reject the region", tc.name, opErr, mcErr)
		}
		if opErr.Error() != mcErr.Error() {
			t.Errorf("%s: AnalyzeLeakage says %q, RunLeakageMC says %q", tc.name, opErr, mcErr)
		}
		if !strings.Contains(opErr.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, opErr, tc.want)
		}
	}
}

// TestLeakageForceCoupledHonorsOptions checks that the coupled ablation
// passes Ctx and Ordering through as AnalyzeLeakage does: a canceled
// context stops it, and its mean preconditioner (one step factor)
// factors the companion under the requested ordering (the companion the
// decoupled path factors, so the two report the same nnz).
func TestLeakageForceCoupledHonorsOptions(t *testing.T) {
	_, nl := testSystem(t, 200, 41)
	opts := LeakageOptions{Regions: 4, SigmaLogI: 0.6, Order: 2, Step: 1e-10, Steps: 4}

	ctx, stop := context.WithCancel(context.Background())
	stop()
	o := opts
	o.Ctx = ctx
	for name, run := range map[string]func(*netlist.Netlist, LeakageOptions) (*Result, error){
		"decoupled": AnalyzeLeakage, "coupled": AnalyzeLeakageForceCoupled,
	} {
		if _, err := run(nl, o); !errors.Is(err, cancel.ErrCanceled) {
			t.Errorf("%s: pre-canceled context returned %v, want cancel.ErrCanceled", name, err)
		}
	}

	nnz := map[order.Method][2]int{}
	for _, m := range []order.Method{order.MethodAMD, order.MethodND} {
		o := opts
		o.Ordering = m
		dec, err := AnalyzeLeakage(nl, o)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New("leakage-coupled")
		o.Obs = tr
		cpl, err := AnalyzeLeakageForceCoupled(nl, o)
		if err != nil {
			t.Fatal(err)
		}
		if cpl.Galerkin.Decoupled {
			t.Fatal("AnalyzeLeakageForceCoupled took the decoupled path")
		}
		factors := "no factor span"
		for _, sp := range tr.Dump().Spans {
			if sp.Name == "factor" {
				factors = sp.Attrs["step_factors"]
			}
		}
		if factors != "1" || cpl.Galerkin.Factorer != "cg+mean-precond" {
			t.Errorf("%v: %q step factors on %q, want the mean preconditioner's 1 on cg+mean-precond",
				m, factors, cpl.Galerkin.Factorer)
		}
		nnz[m] = [2]int{dec.Galerkin.FactorNNZ, cpl.Galerkin.FactorNNZ}
		if nnz[m][0] != nnz[m][1] {
			t.Errorf("%v: coupled factor nnz %d, decoupled %d", m, nnz[m][1], nnz[m][0])
		}
	}
	if nnz[order.MethodAMD] == nnz[order.MethodND] {
		t.Errorf("amd and nd report the same nnz %v; the ordering never reached the factorization", nnz[order.MethodND])
	}
}

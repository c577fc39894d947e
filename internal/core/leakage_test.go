package core

import (
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/mna"
	"opera/internal/netlist"
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

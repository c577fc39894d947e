package core

import (
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/order"
	"opera/internal/sparse"
)

// TestEveryPathHonorsOrdering runs each factoring path under every
// ordering method. The factor nnz a path reports must be that of a
// symbolic analysis of the pattern it factors under
// order.Permute(method, pattern) — proof the method reached the
// factorization — and its moments must match the AMD run: an ordering
// changes rounding only.
func TestEveryPathHonorsOrdering(t *testing.T) {
	const step = 1e-10
	sys, nl := testSystem(t, 150, 23)
	leakSys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Every tenth resistor off-die: the variation is not separable, so
	// CG serves it.
	offNL, err := grid.Build(grid.DefaultSpec(150, 23))
	if err != nil {
		t.Fatal(err)
	}
	for i := 9; i < len(offNL.Resistors); i += 10 {
		offNL.Resistors[i].OnDie = false
	}
	offSys, err := mna.Build(offNL, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Order: 2, Step: step, Steps: 4}
	leakOpts := LeakageOptions{Regions: 4, SigmaLogI: 0.6, Order: 2, Step: step, Steps: 4}
	companion := sparse.Add(1, leakSys.Ga, 1/step, leakSys.Ca)
	union := sys.UnionPattern()

	// Each path returns its reported factor nnz and its per-step mean
	// and variance.
	type run func(order.Method) (nnz int, mean, variance [][]float64)
	paths := []struct {
		name    string
		pattern *sparse.Matrix // what the path orders and factors
		scale   int            // reported nnz per scalar nnz(L)
		run     run
	}{
		// The variation is separable: the eigenbasis recursions order
		// the mean companion, and every step factor shares its pattern.
		{"eigenbasis", sparse.Add(1, sys.Ga, 1/step, sys.Ca), 1, func(m order.Method) (int, [][]float64, [][]float64) {
			o := opts
			o.Ordering = m
			res, err := Analyze(sys, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Galerkin.Decoupled || res.Galerkin.Factorer != "supernodal" {
				t.Fatalf("separable system solved by %q, want the eigenbasis recursions", res.Galerkin.Factorer)
			}
			return res.Galerkin.FactorNNZ, res.Mean, res.Variance
		}},
		// CG serves this short window: the reported nnz is the mean
		// preconditioner's, ordered on the union pattern (the mean
		// companion's pattern here).
		{"coupled", offSys.UnionPattern(), 1, func(m order.Method) (int, [][]float64, [][]float64) {
			o := opts
			o.Ordering = m
			res, err := Analyze(offSys, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Galerkin.Decoupled || res.Galerkin.Factorer != "cg+mean-precond" {
				t.Fatalf("variational system solved by %q, want the coupled CG", res.Galerkin.Factorer)
			}
			return res.Galerkin.FactorNNZ, res.Mean, res.Variance
		}},
		{"decoupled", companion, 1, func(m order.Method) (int, [][]float64, [][]float64) {
			o := leakOpts
			o.Ordering = m
			res, err := AnalyzeLeakage(nl, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Galerkin.Decoupled {
				t.Fatal("leakage system took the coupled path")
			}
			return res.Galerkin.FactorNNZ, res.Mean, res.Variance
		}},
		{"mc", sparse.Add(1, union, 1/step, union), 1, func(m order.Method) (int, [][]float64, [][]float64) {
			o := opts
			o.Ordering = m
			mc, _, err := RunMC(sys, o, 8, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			return mc.FactorNNZ, mc.Mean, mc.Variance
		}},
		{"leakage-mc", companion, 1, func(m order.Method) (int, [][]float64, [][]float64) {
			o := leakOpts
			o.Ordering = m
			mc, err := RunLeakageMC(nl, o, 8, 5)
			if err != nil {
				t.Fatal(err)
			}
			return mc.FactorNNZ, mc.Mean, mc.Variance
		}},
		{"nominal", sparse.Add(1, sys.Ga, 1/step, sys.Ca), 1, func(m order.Method) (int, [][]float64, [][]float64) {
			o := opts
			o.Ordering = m
			nom, err := Nominal(sys, o)
			if err != nil {
				t.Fatal(err)
			}
			return nom.Symbolic.LNNZ(), nom.V, nil
		}},
	}
	methods := []order.Method{order.MethodAMD, order.MethodND, order.MethodMD, order.MethodRCM, order.MethodNatural}
	for _, p := range paths {
		var refMean, refVar [][]float64
		distinct := map[int]bool{}
		for _, m := range methods {
			nnz, mean, variance := p.run(m)
			want := factor.CholAnalyze(p.pattern, order.Permute(m, p.pattern)).LNNZ() * p.scale
			if nnz != want {
				t.Errorf("%s/%v: reported factor nnz %d, symbolic analysis under %v gives %d", p.name, m, nnz, m, want)
			}
			distinct[nnz] = true
			if m == order.MethodAMD {
				refMean, refVar = mean, variance
				continue
			}
			if e := relDiff(mean, refMean); e > 1e-10 {
				t.Errorf("%s/%v: mean differs from the amd run by %.3g relative", p.name, m, e)
			}
			if e := relDiff(variance, refVar); e > 1e-10 {
				t.Errorf("%s/%v: variance differs from the amd run by %.3g relative", p.name, m, e)
			}
		}
		if len(distinct) < 2 {
			t.Errorf("%s: every method reported nnz %v; the ordering never reached the factorization", p.name, distinct)
		}
	}
}

// relDiff is max|a−b| / max|b| over all entries (0 for empty input).
func relDiff(a, b [][]float64) float64 {
	var diff, scale float64
	for s := range b {
		for i := range b[s] {
			diff = math.Max(diff, math.Abs(a[s][i]-b[s][i]))
			scale = math.Max(scale, math.Abs(b[s][i]))
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

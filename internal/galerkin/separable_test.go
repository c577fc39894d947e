package galerkin

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"opera/internal/mna"
	"opera/internal/numguard/inject"
	"opera/internal/obs"
	"opera/internal/pce"
	"opera/internal/poly"
)

// cgTrace runs Solve under a tracer and returns every step's
// coefficient blocks, the result, each solve's CG iterations (index 0
// is the DC solve) and the factor span's step_factors attribute.
func cgTrace(t *testing.T, gsys *System, opts Options) (snaps [][][]float64, res Result, iters []int64, stepFactors string) {
	t.Helper()
	tr := obs.New("precond")
	opts.Obs = tr
	total := tr.Registry().Counter("galerkin.cg_iterations_total")
	snaps = make([][][]float64, opts.Steps+1)
	var seen int64
	res, err := Solve(gsys, opts, func(step int, _ float64, coeffs [][]float64) {
		iters = append(iters, total.Value()-seen)
		seen = total.Value()
		cp := make([][]float64, len(coeffs))
		for m := range coeffs {
			cp[m] = append([]float64(nil), coeffs[m]...)
		}
		snaps[step] = cp
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res, iters, spanAttr(tr, "factor", "step_factors")
}

// separableSystems lifts the exactly separable variation models: the
// two-variable Build (Hermite and Legendre), the three-variable
// BuildThreeVar and a correlated BuildCorrelated, each at orders 2
// and 3.
func separableSystems(t *testing.T) map[string]*System {
	t.Helper()
	nl := smallGrid()
	build, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	three, err := mna.BuildThreeVar(nl, mna.DefaultThreeVarSpec())
	if err != nil {
		t.Fatal(err)
	}
	sW, sT, sL, rho := 0.20/3, 0.15/3, 0.20/3, 0.6
	corr, err := mna.BuildCorrelated(nl, [][]float64{
		{sW * sW, rho * sW * sT, 0},
		{rho * sW * sT, sT * sT, 0},
		{0, 0, sL * sL},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*System{}
	for _, order := range []int{2, 3} {
		leg := pce.NewBasis([]poly.Family{poly.Legendre{}, poly.Legendre{}}, order)
		for name, lift := range map[string]struct {
			sys   *mna.System
			basis *pce.Basis
		}{
			"build":      {build, pce.NewHermiteBasis(2, order)},
			"legendre":   {build, leg},
			"threevar":   {three, pce.NewHermiteBasis(3, order)},
			"correlated": {corr, pce.NewHermiteBasis(3, order)},
		} {
			gsys, err := From(lift.sys, lift.basis)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s-%d", name, order)] = gsys
		}
	}
	return out
}

// TestSeparablePrecondOneIterationPerStep checks that every separable
// model costs one scalar solve per recursion and step, and no CG at
// all: the eigenbasis recursions serve it on the supernodal rung with a
// healthy report, each verified step's Kronecker-form residual is
// recorded, and the moments lie within the block oracle's bounds.
func TestSeparablePrecondOneIterationPerStep(t *testing.T) {
	for name, gsys := range separableSystems(t) {
		t.Run(name, func(t *testing.T) {
			opts := Options{Step: tStep, Steps: 15}
			refMean, refVar := snapMoments(blockDirect(t, gsys, opts))
			snaps, res, iters, factors := cgTrace(t, gsys, opts)
			if res.Decoupled || res.Factorer != "supernodal" || factors == "" {
				t.Fatalf("decoupled %v, factorer %q, step factors %q; want the eigenbasis recursions on supernodal",
					res.Decoupled, res.Factorer, factors)
			}
			for k, it := range iters {
				if it != 0 {
					t.Errorf("solve %d took %d CG iterations, want none", k, it)
				}
			}
			rep := res.Guard()
			if !rep.Healthy() || res.CondEst <= 0 || rep.MaxResidual <= 0 || rep.MaxResidual > 1e-13 {
				t.Errorf("report %s, cond %g", rep.Summary(), res.CondEst)
			}
			mean, variance := snapMoments(snaps)
			assertMomentsClose(t, name, mean, variance, refMean, refVar)
		})
	}
}

// TestEigenbasisStepFactors checks the shift grouping on the
// generated grid mediumSystem lifts: the chaos eigenvalues that are 1
// in exact arithmetic share one factor, so order 2 steps on 5 shifted
// companions for its 6 chaos columns and order 3 on 9 for its 10.
func TestEigenbasisStepFactors(t *testing.T) {
	sys, err := mna.Build(mediumNetlist(t), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ order, factors int }{{2, 5}, {3, 9}} {
		gsys, err := From(sys, pce.NewHermiteBasis(2, tc.order))
		if err != nil {
			t.Fatal(err)
		}
		_, res, _, factors := cgTrace(t, gsys, Options{Step: 1e-10, Steps: 2})
		if factors != fmt.Sprint(tc.factors) || res.Factorer != "supernodal" {
			t.Errorf("order %d: %s step factors on %q, want %d on supernodal", tc.order, factors, res.Factorer, tc.factors)
		}
	}
}

// TestEigenbasisLU checks that ForceLU and a failed supernodal rung keep
// a separable system on the eigenbasis recursions, every ladder on LU,
// with no CG and the block oracle's moments.
func TestEigenbasisLU(t *testing.T) {
	gsys := mediumSystem(t)
	base := Options{Step: 1e-10, Steps: 10}
	refMean, refVar := snapMoments(blockDirect(t, gsys, base))
	for _, tc := range []struct {
		name   string
		opts   Options
		faults *inject.Faults
	}{
		{"force-lu", Options{ForceLU: true}, nil},
		{"fail-supernodal", Options{}, &inject.Faults{FailPrepare: map[string]int{"supernodal": -1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults != nil {
				t.Cleanup(inject.Enable(tc.faults))
			}
			opts := tc.opts
			opts.Step, opts.Steps = base.Step, base.Steps
			snaps, res, iters, factors := cgTrace(t, gsys, opts)
			if res.Factorer != "lu" || factors != "5" {
				t.Errorf("factorer %q on %s step factors, want lu on the eigenbasis path's 5", res.Factorer, factors)
			}
			for k, it := range iters {
				if it != 0 {
					t.Errorf("solve %d took %d CG iterations, want none", k, it)
				}
			}
			mean, variance := snapMoments(snaps)
			assertMomentsClose(t, tc.name, mean, variance, refMean, refVar)
		})
	}
}

// TestEigenbasisUnexcited checks a separable system no excitation
// reaches: there is nothing to step in the eigenbasis, so CG settles
// it, at zero.
func TestEigenbasisUnexcited(t *testing.T) {
	gsys := mediumSystem(t)
	for _, w := range gsys.Weights {
		clear(w)
	}
	if planEigen(gsys) != nil {
		t.Fatal("planned recursions for an unexcited system")
	}
	snaps, _ := collectCoeffs(t, gsys, Options{Step: 1e-10, Steps: 3})
	for k, blocks := range snaps {
		for m, blk := range blocks {
			if !allZero(blk) {
				t.Fatalf("step %d block %d is not zero", k, m)
			}
		}
	}
}

// TestEigenbasisKroneckerFault corrupts the mixed-out state of a
// verified step. Only the Kronecker-form check sees it: the recursions
// themselves solved correctly. The check must move the step and the
// rest of the window onto the block ladder with a recorded transition,
// and the moments must still match the block oracle.
func TestEigenbasisKroneckerFault(t *testing.T) {
	gsys := mediumSystem(t)
	opts := Options{Step: 1e-10, Steps: 12}
	refMean, refVar := snapMoments(blockDirect(t, gsys, opts))
	for _, tc := range []struct {
		name   string
		faults *inject.Faults
		step   int
	}{
		{"nan-step-8", &inject.Faults{SolveNaN: map[int]string{8: eigenRung}}, 8},
		{"drift", &inject.Faults{SolveDrift: map[string]float64{eigenRung: 1e-3}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(inject.Enable(tc.faults))
			snaps, res, iters, _ := cgTrace(t, gsys, opts)
			if res.Factorer != eigenRung+"→block-cholesky" {
				t.Errorf("factorer %q, want the escalation to block-cholesky", res.Factorer)
			}
			rep := res.Guard()
			if len(rep.Transitions) != 1 {
				t.Fatalf("want one transition, got %+v", rep.Transitions)
			}
			if tr := rep.Transitions[0]; tr.From != eigenRung || tr.To != "block-cholesky" || tr.Step != tc.step ||
				!strings.Contains(tr.Reason, "Kronecker-form residual") {
				t.Errorf("transition %+v, want %s→block-cholesky at step %d", tr, eigenRung, tc.step)
			}
			for k, it := range iters {
				if it != 0 {
					t.Errorf("solve %d took %d CG iterations; the block ladder needs none", k, it)
				}
			}
			mean, variance := snapMoments(snaps)
			assertMomentsClose(t, tc.name, mean, variance, refMean, refVar)
		})
	}
}

// TestSeparablePrecondFallback checks that every system or option the
// eigenbasis recursions do not take runs CG on the mean preconditioner
// exactly as before: a spatial model, an off-die grid, an RHS-only
// system forced onto the coupled path, and a separable one forced
// there as well, plain, under ForceLU or with an injected supernodal
// failure. The CG iterations per solve (DC first; 0 once a window hands
// off to the block factor) and the factorer are the mean
// preconditioner's, and the factor span counts its one step factor.
func TestSeparablePrecondFallback(t *testing.T) {
	separable := func(t *testing.T) *System {
		sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		gsys, err := From(sys, pce.NewHermiteBasis(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return gsys
	}
	spatial := func(t *testing.T) *System {
		sys, err := mna.BuildSpatial(regionedGrid(), mna.SpatialSpec{
			RegionsPerAxis: 2, KG: 0.25 / 3, KCL: 0.2 / 3, KIL: 0.2 / 3, CorrLength: 1, MaxDims: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		gsys, err := From(sys, pce.NewHermiteBasis(sys.Dims(), 2))
		if err != nil {
			t.Fatal(err)
		}
		return gsys
	}
	offDieGrid := func(t *testing.T) *System {
		gsys, err := From(excitedGrid(t), pce.NewHermiteBasis(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return gsys
	}
	for _, tc := range []struct {
		name     string
		sys      func(*testing.T) *System
		opts     Options
		faults   *inject.Faults
		iters    []int64
		factorer string
	}{
		{"spatial", spatial, Options{}, nil,
			[]int64{7, 0, 0, 0, 0, 6, 6, 6, 6, 5, 5}, "cg+mean-precond"},
		{"off-die", offDieGrid, Options{}, nil,
			[]int64{5, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "block-cholesky"},
		{"rhs-only-coupled", func(t *testing.T) *System { return rhsOnlySystem(t, 2) }, Options{ForceCoupled: true}, nil,
			[]int64{1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, "cg+mean-precond"},
		{"force-coupled", separable, Options{ForceCoupled: true}, nil,
			[]int64{5, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0}, "block-cholesky"},
		{"force-lu", separable, Options{ForceCoupled: true, ForceLU: true}, nil,
			[]int64{5, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0}, "lu"},
		{"fail-supernodal", separable, Options{ForceCoupled: true}, &inject.Faults{FailPrepare: map[string]int{"supernodal": -1}},
			[]int64{5, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0}, "block-cholesky"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gsys := tc.sys(t)
			if tc.faults != nil {
				t.Cleanup(inject.Enable(tc.faults))
			}
			opts := tc.opts
			opts.Step, opts.Steps = tStep, 10
			_, res, iters, factors := cgTrace(t, gsys, opts)
			if factors != "1" {
				t.Errorf("step factors %q, want the mean preconditioner's 1", factors)
			}
			if res.Factorer != tc.factorer || fmt.Sprint(iters) != fmt.Sprint(tc.iters) {
				t.Errorf("factorer %q, CG iterations per solve %v; want %q, %v", res.Factorer, iters, tc.factorer, tc.iters)
			}
		})
	}
}

// TestEigenbasisParallelDeterminism checks that the eigenbasis
// recursions are bit-identical at every worker count: the ladders
// prepare in parallel over the shifts, the recursions split into
// worker chunks and the blocks mix out over block ranges.
func TestEigenbasisParallelDeterminism(t *testing.T) {
	sys3, err := mna.BuildThreeVar(mediumNetlist(t), mna.DefaultThreeVarSpec())
	if err != nil {
		t.Fatal(err)
	}
	three, err := From(sys3, pce.NewHermiteBasis(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := mna.Build(mediumNetlist(t), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	order3, err := From(sys2, pce.NewHermiteBasis(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, gsys := range map[string]*System{"build-2": mediumSystem(t), "build-3": order3, "threevar-2": three} {
		var ref [][][]float64
		// 3 and 7 split the recursions and shifts unevenly.
		for _, w := range []int{1, 2, 3, 4, 7} {
			snaps, res, iters, _ := cgTrace(t, gsys, Options{Step: 1e-10, Steps: 20, Workers: w})
			if res.Factorer != "supernodal" || iters[len(iters)-1] != 0 {
				t.Fatalf("%s workers=%d: factorer %q, CG iterations %v", name, w, res.Factorer, iters)
			}
			if ref == nil {
				ref = snaps
				continue
			}
			assertIdenticalCoeffs(t, ref, snaps, w)
		}
	}
}

// TestChaosEigenbasis checks the chaos side of the exact
// preconditioner: Build's terms fit G₀ and C₀ to rounding while an
// off-die grid's geometry term does not, and the eigenbasis satisfies
// Qᵀ·T̂_G·Q = I and Qᵀ·T̂_C·Q = Λ to 1e-14.
func TestChaosEigenbasis(t *testing.T) {
	misfits := func(gsys *System) (g, c float64) {
		_, g = proportion(gsys.GTerms[1].A, gsys.GTerms[0].A)
		_, c = proportion(gsys.CTerms[1].A, gsys.CTerms[0].A)
		return g, c
	}
	if g, c := misfits(mediumSystem(t)); g > 1e-14 || c > 1e-14 {
		t.Errorf("Build's misfits %.3g (G) and %.3g (C), want rounding level", g, c)
	}
	if g, _ := misfits(mediumOffDieSystem(t)); g < 1e-3 {
		t.Errorf("off-die geometry misfit %.3g, want far above rounding", g)
	}
	for name, gsys := range separableSystems(t) {
		b := gsys.Basis.Size()
		g0, c0 := sumTerms(gsys.GTerms[:1], gsys.N), sumTerms(gsys.CTerms[:1], gsys.N)
		tg, okG := chaosFit(gsys.GTerms, g0, b)
		tc, okC := chaosFit(gsys.CTerms, c0, b)
		if !okG || !okC {
			t.Fatalf("%s: terms do not fit", name)
		}
		q, lambda, ok := chaosEigenbasis(tg, tc, b)
		if !ok {
			t.Fatalf("%s: T̂_G or T̂_C not positive definite", name)
		}
		worstG, worstC := 0.0, 0.0
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				var sg, sc float64
				for k := 0; k < b; k++ {
					for l := 0; l < b; l++ {
						sg += q[k*b+i] * tg[k*b+l] * q[l*b+j]
						sc += q[k*b+i] * tc[k*b+l] * q[l*b+j]
					}
				}
				if i == j {
					sg, sc = sg-1, sc-lambda[i]
				}
				worstG, worstC = math.Max(worstG, math.Abs(sg)), math.Max(worstC, math.Abs(sc))
			}
		}
		if worstG > 1e-14 || worstC > 1e-14 {
			t.Errorf("%s: |QᵀT̂_GQ − I| %.3g, |QᵀT̂_CQ − Λ| %.3g, want ≤ 1e-14", name, worstG, worstC)
		}
	}
}

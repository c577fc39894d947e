package galerkin

import (
	"fmt"
	"math"
	"testing"

	"opera/internal/mna"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/pce"
	"opera/internal/poly"
	"opera/internal/sparse"
)

// TestSumTermsSingleTermNoAlias is the regression test for the aliasing
// bug where a single-term list returned the term's own matrix: mutating
// the sum then silently corrupted the system definition.
func TestSumTermsSingleTermNoAlias(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, 3)
	tr.Add(0, 1, -1)
	tr.Add(1, 0, -1)
	a := tr.Compile()
	before := append([]float64(nil), a.Val...)
	id := sparse.Identity(3) // the chaos coupling of a mean term

	sum := sumTerms([]Term{{Coupling: id, A: a}}, 2)
	if sum == a {
		t.Fatal("sumTerms returned the term's own matrix")
	}
	for i := range sum.Val {
		sum.Val[i] *= 100
	}
	for i, v := range a.Val {
		if v != before[i] {
			t.Fatalf("term matrix mutated through the sum: Val[%d] = %g, want %g", i, v, before[i])
		}
	}

	// Empty and multi-term lists must also hand back private storage.
	if z := sumTerms(nil, 2); z.NNZ() != 0 || z.Rows != 2 {
		t.Errorf("empty sum: %dx%d with %d nnz", z.Rows, z.Cols, z.NNZ())
	}
	two := sumTerms([]Term{{Coupling: id, A: a}, {Coupling: id, A: a}}, 2)
	if two == a {
		t.Fatal("two-term sum aliases the input")
	}
}

// rhsOnlySystem builds a grid whose variations enter only the RHS, so
// Solve takes the §5.1 decoupled path, on the order-p Hermite basis.
func rhsOnlySystem(t *testing.T, order int) *System {
	t.Helper()
	return rhsOnlySystemOn(t, pce.NewHermiteBasis(2, order))
}

// rhsOnlySystemOn is rhsOnlySystem on any two-dimensional basis. Only
// the leakage variable z_L drives the RHS: the geometry variable's u_G
// is identically zero on this grid.
func rhsOnlySystemOn(t *testing.T, basis *pce.Basis) *System {
	t.Helper()
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
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}
	if p := planEigen(gsys); p == nil || p.mixed {
		t.Fatal("system should be RHS-only")
	}
	return gsys
}

// collectCoeffs runs Solve and copies every step's coefficient blocks.
func collectCoeffs(t *testing.T, gsys *System, opts Options) (snaps [][][]float64, res Result) {
	t.Helper()
	snaps = make([][][]float64, opts.Steps+1)
	res, err := Solve(gsys, opts, func(step int, _ float64, coeffs [][]float64) {
		cp := make([][]float64, len(coeffs))
		for m := range coeffs {
			cp[m] = append([]float64(nil), coeffs[m]...)
		}
		snaps[step] = cp
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res
}

// assertCloseCoeffs checks every block of got within tol of ref,
// relative to the block's ∞-norm in ref, at every step.
func assertCloseCoeffs(t *testing.T, ref, got [][][]float64, tol float64, label string) {
	t.Helper()
	for s := range ref {
		for m := range ref[s] {
			var diff, scale float64
			for i, v := range ref[s][m] {
				diff = math.Max(diff, math.Abs(got[s][m][i]-v))
				scale = math.Max(scale, math.Abs(v))
			}
			if diff > tol*scale {
				t.Fatalf("%s: step %d block %d differs by %.3g, %.3g relative to its ∞-norm %.3g",
					label, s, m, diff, diff/scale, scale)
			}
		}
	}
}

// unweightedBlocks lists the blocks no excitation source weights.
func unweightedBlocks(sys *System) []int {
	var out []int
	for m := 0; m < sys.Basis.Size(); m++ {
		if sys.source(m) < 0 {
			out = append(out, m)
		}
	}
	return out
}

// assertPositiveZero checks that blocks are exactly +0 at every step.
func assertPositiveZero(t *testing.T, snaps [][][]float64, blocks []int, label string) {
	t.Helper()
	for k := range snaps {
		for _, m := range blocks {
			for i, v := range snaps[k][m] {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: step %d block %d node %d = %g, want +0", label, k, m, i, v)
				}
			}
		}
	}
}

func assertIdenticalCoeffs(t *testing.T, ref, got [][][]float64, workers int) {
	t.Helper()
	for s := range ref {
		for m := range ref[s] {
			for i := range ref[s][m] {
				if math.Float64bits(got[s][m][i]) != math.Float64bits(ref[s][m][i]) {
					t.Fatalf("workers=%d: coefficient differs at step %d basis %d node %d: %.17g vs %.17g",
						workers, s, m, i, got[s][m][i], ref[s][m][i])
				}
			}
		}
	}
}

// TestDecoupledParallelDeterminism checks the tentpole contract on the
// decoupled fast path: chaos coefficients are bit-identical for any
// worker count.
func TestDecoupledParallelDeterminism(t *testing.T) {
	gsys := rhsOnlySystem(t, 2)
	base := Options{Step: tStep, Steps: 12}
	var ref [][][]float64
	// 3 and 7 split the live columns unevenly (7 exceeds them).
	for _, w := range []int{1, 2, 3, 4, 7} {
		opts := base
		opts.Workers = w
		snaps, res := collectCoeffs(t, gsys, opts)
		if !res.Decoupled {
			t.Fatalf("workers=%d: decoupled path not taken", w)
		}
		if ref == nil {
			ref = snaps
			continue
		}
		assertIdenticalCoeffs(t, ref, snaps, w)
	}
}

// perColumnDecoupled is the reference for the decoupled path: every
// chaos column of System.RHS solved on its own through the numguard
// ladders at every step, excited or not — the per-basis loop the
// decoupled path ran before its solves were batched, unexcited columns
// skipped and each excitation source solved once for all the blocks it
// weights.
func perColumnDecoupled(t *testing.T, sys *System, opts Options) [][][]float64 {
	t.Helper()
	n, b := sys.N, sys.Basis.Size()
	g0 := sumTerms(sys.GTerms, n)
	c0 := sumTerms(sys.CTerms, n)
	companion := sparse.Add(1, g0, 1/opts.Step, c0)
	perm := order.Permute(opts.Ordering, companion)
	lad := numguard.NewLadder("step", opts.Guard, companion, companion.NormInf(),
		scalarRungs(companion, nil, perm, 1, opts.Guard, false, nil), nil)
	dcLad := numguard.NewLadder("dc", opts.Guard, g0, g0.NormInf(),
		scalarRungs(g0, nil, perm, 1, opts.Guard, false, nil), nil)
	blocks, rhs := alloc2(b, n), alloc2(b, n)
	cx, r := make([]float64, n), make([]float64, n)
	snaps := make([][][]float64, opts.Steps+1)
	snap := func(k int) {
		snaps[k] = alloc2(b, n)
		for m := range blocks {
			copy(snaps[k][m], blocks[m])
		}
	}
	sys.RHS(0, rhs)
	for m := range blocks {
		if err := dcLad.Solve(0, blocks[m], rhs[m]); err != nil {
			t.Fatal(err)
		}
	}
	snap(0)
	for k := 1; k <= opts.Steps; k++ {
		sys.RHS(float64(k)*opts.Step, rhs)
		for m := range blocks {
			c0.MulVec(cx, blocks[m])
			for i := range r {
				r[i] = rhs[m][i] + cx[i]/opts.Step
			}
			if err := lad.Solve(k, blocks[m], r); err != nil {
				t.Fatal(err)
			}
		}
		snap(k)
	}
	return snaps
}

// liveColumns returns the transient span's live_columns attribute.
func liveColumns(tr *obs.Tracer) string {
	for _, sp := range tr.Dump().Spans {
		if sp.Name == "transient" {
			return sp.Attrs["live_columns"]
		}
	}
	return ""
}

// TestDecoupledSkipsUnexcitedColumns checks the live-source rule: on
// the RHS-only grid the excitation reaches 3 of the 6 order-2 basis
// columns (the mean, ξ_L and ξ_L², which z_L's quadrature projection
// weights by about 5e-16), the other 3 are never written and stay
// exactly +0 at every step, the transient span records 2 live sources
// (the mean and u_L; u_G is identically zero), and every block is
// within 1e-13 of the per-column ladder's.
func TestDecoupledSkipsUnexcitedColumns(t *testing.T) {
	gsys := rhsOnlySystem(t, 2)
	for _, w := range []int{1, 2} {
		opts := Options{Step: tStep, Steps: 12, Workers: w}
		ref := perColumnDecoupled(t, gsys, opts)
		// The columns the excitation never reaches, from the RHS itself.
		reached := make([]bool, gsys.Basis.Size())
		rhs := alloc2(gsys.Basis.Size(), gsys.N)
		for k := 0; k <= opts.Steps; k++ {
			gsys.RHS(float64(k)*opts.Step, rhs)
			for m := range rhs {
				reached[m] = reached[m] || !allZero(rhs[m])
			}
		}
		var dead []int
		for m, on := range reached {
			if !on {
				dead = append(dead, m)
			}
		}
		if len(dead) != 3 {
			t.Fatalf("%d unexcited columns %v, want 3 of %d", len(dead), dead, len(reached))
		}
		tr := obs.New("decoupled")
		opts.Obs = tr
		snaps, _ := collectCoeffs(t, gsys, opts)
		label := fmt.Sprintf("workers=%d", w)
		assertPositiveZero(t, snaps, dead, label)
		assertCloseCoeffs(t, ref, snaps, 1e-13, label)
		if live := liveColumns(tr); live != "2" {
			t.Errorf("workers=%d: transient span live_columns = %q, want 2", w, live)
		}
	}
}

// TestDecoupledSourcesMatchPerColumn checks the factored decoupled path
// against the per-column reference on RHS-only linear systems, Hermite
// (z_L's first-order weight 1.0000000000000007) and Legendre (weights
// well away from 1): every block within 1e-13 of the reference, the
// mean block bitwise equal to it (its source has weight 1), unweighted
// blocks exactly +0, and results bitwise equal at every worker count.
func TestDecoupledSourcesMatchPerColumn(t *testing.T) {
	leg := []poly.Family{poly.Legendre{}, poly.Legendre{}}
	for _, tc := range []struct {
		name  string
		basis *pce.Basis
	}{
		{"hermite-2", pce.NewHermiteBasis(2, 2)},
		{"legendre-3", pce.NewBasis(leg, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gsys := rhsOnlySystemOn(t, tc.basis)
			unweighted := unweightedBlocks(gsys)
			if len(unweighted) == 0 {
				t.Fatal("every block is weighted; the +0 check would be vacuous")
			}
			base := Options{Step: tStep, Steps: 12}
			ref := perColumnDecoupled(t, gsys, base)
			var first [][][]float64
			for _, w := range []int{1, 2, 3, 4, 7} {
				opts := base
				opts.Workers = w
				snaps, res := collectCoeffs(t, gsys, opts)
				if !res.Decoupled {
					t.Fatalf("workers=%d: decoupled path not taken", w)
				}
				if first != nil {
					assertIdenticalCoeffs(t, first, snaps, w)
					continue
				}
				first = snaps
				assertCloseCoeffs(t, ref, snaps, 1e-13, tc.name)
				assertPositiveZero(t, snaps, unweighted, tc.name)
				for k := range snaps {
					for i, v := range snaps[k][0] {
						if math.Float64bits(v) != math.Float64bits(ref[k][0][i]) {
							t.Fatalf("step %d node %d: mean %.17g, reference %.17g", k, i, v, ref[k][0][i])
						}
					}
				}
			}
		})
	}
}

// TestCoupledParallelDeterminism checks the same contract on the
// coupled path, whose parallel surfaces are the Kronecker apply's
// 64-row chunks and the preconditioner's column ranges — on the
// non-separable grid, for a window CG serves to the end and for one
// that hands off to the block factor (the decision is made from counts
// alone, so it agrees too). TestEigenbasisParallelDeterminism covers
// separable systems.
func TestCoupledParallelDeterminism(t *testing.T) {
	gsys := mediumOffDieSystem(t)
	for _, tc := range []struct {
		steps    int
		factorer string
	}{
		{20, "cg+mean-precond"},
		{50, "block-cholesky"},
	} {
		base := Options{Step: 1e-10, Steps: tc.steps}
		var ref [][][]float64
		// 3 and 7 split the six chaos columns unevenly (7 exceeds them).
		for _, w := range []int{1, 2, 3, 4, 7} {
			opts := base
			opts.Workers = w
			snaps, res := collectCoeffs(t, gsys, opts)
			if res.Factorer != tc.factorer {
				t.Fatalf("%d steps, workers=%d: factorer %q, want %q", tc.steps, w, res.Factorer, tc.factorer)
			}
			if ref == nil {
				ref = snaps
				continue
			}
			assertIdenticalCoeffs(t, ref, snaps, w)
		}
	}
}

// TestSolveRespectsWorkersOption smoke-tests that an absurd worker
// count is clamped and still solves correctly.
func TestSolveRespectsWorkersOption(t *testing.T) {
	gsys := rhsOnlySystem(t, 1)
	opts := Options{Step: tStep, Steps: 5, Workers: 1000}
	if _, err := Solve(gsys, opts, nil); err != nil {
		t.Fatal(err)
	}
}

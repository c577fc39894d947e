package factor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opera/internal/order"
	"opera/internal/sparse"
)

// superFactorize analyzes and factors a with the supernodal kernel.
func superFactorize(t *testing.T, a *sparse.Matrix, perm []int, relax, workers int) (*SuperSymbolic, *SuperFactor) {
	t.Helper()
	sym := CholAnalyzeSupernodal(a, perm, relax)
	f, err := sym.Factorize(a, nil, workers)
	if err != nil {
		t.Fatalf("supernodal factorize (relax %d, workers %d): %v", relax, workers, err)
	}
	return sym, f
}

// TestSupernodalMatchesScalar is the core equivalence sweep: on a mesh
// and on random SPD patterns, across orderings and amalgamation
// settings, the supernodal kernel must reproduce the scalar kernel's
// L pattern and cost model exactly and its values to rounding.
func TestSupernodalMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mats := []*sparse.Matrix{
		laplacian2D(13, 11, 0.3),
		laplacian2D(1, 40, 0.1),
		randomSPD(rng, 60, 0.08),
		randomSPD(rng, 35, 0.25),
		sparse.Identity(6),
	}
	for mi, a := range mats {
		perms := [][]int{nil, order.MinimumDegree(order.NewGraph(a)), order.AMD(order.NewGraph(a))}
		for pi, perm := range perms {
			for _, relax := range []int{0, -1, 4, 1 << 30} {
				sym, f := superFactorize(t, a, perm, relax, 1)
				// The analysis postorders the etree, so the scalar
				// reference must factor at the composed permutation.
				ref, err := Cholesky(a, sym.Perm)
				if err != nil {
					t.Fatalf("mat %d perm %d: scalar: %v", mi, pi, err)
				}
				// Cost model parity: both kernels report the exact scalar
				// pattern metrics, so benchmark gates compare like with like.
				if sym.LNNZ() != ref.Sym.LNNZ() || sym.FlopEstimate() != ref.Sym.FlopEstimate() {
					t.Fatalf("mat %d perm %d relax %d: cost model diverges: nnz %d vs %d, flops %d vs %d",
						mi, pi, relax, sym.LNNZ(), ref.Sym.LNNZ(), sym.FlopEstimate(), ref.Sym.FlopEstimate())
				}
				if sym.PanelNNZ() < sym.LNNZ() {
					t.Fatalf("panel storage %d below exact nnz %d", sym.PanelNNZ(), sym.LNNZ())
				}
				l := f.L()
				for j := 0; j <= l.Cols; j++ {
					if l.Colp[j] != ref.L.Colp[j] {
						t.Fatalf("mat %d perm %d relax %d: L colp mismatch at %d", mi, pi, relax, j)
					}
				}
				for p := range l.Rowi {
					if l.Rowi[p] != ref.L.Rowi[p] {
						t.Fatalf("mat %d perm %d relax %d: L pattern mismatch at entry %d", mi, pi, relax, p)
					}
					if d := math.Abs(l.Val[p] - ref.L.Val[p]); d > 1e-10*(1+math.Abs(ref.L.Val[p])) {
						t.Fatalf("mat %d perm %d relax %d: L value mismatch at entry %d: %g vs %g",
							mi, pi, relax, p, l.Val[p], ref.L.Val[p])
					}
				}
				// And the solves agree with the matrix.
				n := a.Rows
				b := make([]float64, n)
				for i := range b {
					b[i] = math.Sin(float64(3*i + mi))
				}
				x := make([]float64, n)
				f.SolveTo(x, b)
				if r := residualInf(a, x, b); r > 1e-8 {
					t.Errorf("mat %d perm %d relax %d: residual %g", mi, pi, relax, r)
				}
			}
		}
	}
}

// TestSupernodalAmalgamationExtremes pins the two degenerate
// amalgamation settings: relax 0 yields fundamental supernodes (more
// than one on any non-chain mesh), a huge relax merges the whole
// matrix into a single dense panel — and both still factor correctly
// (value checks ride along in TestSupernodalMatchesScalar).
func TestSupernodalAmalgamationExtremes(t *testing.T) {
	a := laplacian2D(9, 8, 0.2)
	sym0, _ := superFactorize(t, a, nil, 0, 1)
	symHuge, _ := superFactorize(t, a, nil, 1<<30, 1)
	if sym0.Supernodes() <= 1 {
		t.Errorf("relax 0 on a mesh produced %d supernodes", sym0.Supernodes())
	}
	if symHuge.Supernodes() != 1 {
		t.Errorf("huge relax produced %d supernodes, want 1", symHuge.Supernodes())
	}
	if sym0.Supernodes() < symHuge.Supernodes() {
		t.Errorf("amalgamation increased supernode count")
	}
	// Identity: every column is its own fundamental supernode.
	id := sparse.Identity(5)
	symID, _ := superFactorize(t, id, nil, 0, 1)
	if symID.Supernodes() != 5 {
		t.Errorf("identity: %d supernodes, want 5", symID.Supernodes())
	}
}

// TestSupernodalWorkerDeterminism asserts the bit-exactness promise:
// the numeric factor is identical — every panel float, compared as
// bits — no matter how many workers race over the elimination tree.
func TestSupernodalWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mats := []*sparse.Matrix{
		laplacian2D(17, 13, 0.25),
		randomSPD(rng, 80, 0.06),
	}
	for mi, a := range mats {
		perm := order.AMD(order.NewGraph(a))
		_, ref := superFactorize(t, a, perm, -1, 1)
		for _, workers := range []int{2, 4, 7} {
			_, f := superFactorize(t, a, perm, -1, workers)
			if len(f.val) != len(ref.val) {
				t.Fatalf("mat %d: panel sizes differ", mi)
			}
			for i := range f.val {
				if math.Float64bits(f.val[i]) != math.Float64bits(ref.val[i]) {
					t.Fatalf("mat %d workers %d: panel[%d] differs bitwise: %x vs %x",
						mi, workers, i, math.Float64bits(f.val[i]), math.Float64bits(ref.val[i]))
				}
			}
		}
	}
}

// TestSupernodalNotPositiveDefiniteParity: both kernels must reject an
// indefinite matrix with an error wrapping ErrNotPositiveDefinite and
// naming the same pivot column — serial and parallel alike (the
// parallel scheduler selects the minimal failing column).
func TestSupernodalNotPositiveDefiniteParity(t *testing.T) {
	a := laplacian2D(8, 8, 0.3)
	// Poison one diagonal entry mid-matrix: the pivot at its permuted
	// column goes negative.
	bad := a.Clone()
	for j := 0; j < bad.Cols; j++ {
		for p := bad.Colp[j]; p < bad.Colp[j+1]; p++ {
			if bad.Rowi[p] == j && j == 29 {
				bad.Val[p] = -40
			}
		}
	}
	_, scalarErr := Cholesky(bad, CholAnalyzeSupernodal(bad, nil, -1).Perm)
	if !errors.Is(scalarErr, ErrNotPositiveDefinite) {
		t.Fatalf("scalar kernel accepted an indefinite matrix: %v", scalarErr)
	}
	for _, workers := range []int{1, 4} {
		sym := CholAnalyzeSupernodal(bad, nil, -1)
		_, err := sym.Factorize(bad, nil, workers)
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("workers %d: supernodal kernel accepted an indefinite matrix: %v", workers, err)
		}
		if err.Error() != scalarErr.Error() {
			t.Errorf("workers %d: error mismatch:\n supernodal: %v\n scalar:     %v", workers, err, scalarErr)
		}
	}
}

// TestSupernodalFactorizeReuse: a second numeric factorization that
// passes the first as reuse must recycle the panel storage and track
// the new values.
func TestSupernodalFactorizeReuse(t *testing.T) {
	a := laplacian2D(10, 10, 0.2)
	sym, f1 := superFactorize(t, a, order.AMD(order.NewGraph(a)), -1, 1)
	a2 := a.Clone().Scale(2.5)
	f2, err := sym.Factorize(a2, f1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("Factorize did not recycle the factor storage")
	}
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := make([]float64, n)
	f2.SolveTo(x, b)
	if r := residualInf(a2, x, b); r > 1e-8 {
		t.Errorf("reused factor residual %g", r)
	}
}

// TestSupernodalSolveScratchAllocFree: the MC/transient hot loops rely
// on SolveToWithScratch staying allocation-free.
func TestSupernodalSolveScratchAllocFree(t *testing.T) {
	a := laplacian2D(12, 9, 0.2)
	_, f := superFactorize(t, a, nil, -1, 1)
	n := a.Rows
	x := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	if allocs := testing.AllocsPerRun(20, func() {
		f.SolveToWithScratch(x, b, y)
	}); allocs != 0 {
		t.Errorf("SolveToWithScratch allocates %.0f objects per call", allocs)
	}
}

// TestSupernodalFuzzEquivalence cross-checks random patterns, random
// amalgamation and random worker counts against the scalar kernel.
func TestSupernodalFuzzEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randomSPD(rng, n, 0.05+0.3*rng.Float64())
		relax := rng.Intn(12)
		workers := 1 + rng.Intn(4)
		sym := CholAnalyzeSupernodal(a, nil, relax)
		ref, err := Cholesky(a, sym.Perm)
		if err != nil {
			return false
		}
		sf, err := sym.Factorize(a, nil, workers)
		if err != nil {
			return false
		}
		l := sf.L()
		for p := range l.Rowi {
			if l.Rowi[p] != ref.L.Rowi[p] {
				return false
			}
			if math.Abs(l.Val[p]-ref.L.Val[p]) > 1e-9*(1+math.Abs(ref.L.Val[p])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

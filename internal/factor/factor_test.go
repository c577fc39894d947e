package factor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opera/internal/order"
	"opera/internal/sparse"
)

// laplacian2D returns the SPD 5-point Laplacian plus a diagonal shift on
// an rows×cols grid.
func laplacian2D(rows, cols int, shift float64) *sparse.Matrix {
	n := rows * cols
	t := sparse.NewTriplet(n, n, 5*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			t.Add(v, v, 4+shift)
			if r+1 < rows {
				t.Add(v, id(r+1, c), -1)
				t.Add(id(r+1, c), v, -1)
			}
			if c+1 < cols {
				t.Add(v, id(r, c+1), -1)
				t.Add(id(r, c+1), v, -1)
			}
		}
	}
	return t.Compile()
}

func randomSPD(rng *rand.Rand, n int, density float64) *sparse.Matrix {
	t := sparse.NewTriplet(n, n, n*4)
	for i := 0; i < n; i++ {
		offsum := 0.0
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := -rng.Float64()
				t.Add(i, j, v)
				t.Add(j, i, v)
				offsum += -v
			}
		}
		t.Add(i, i, 1+2*offsum) // strictly diagonally dominant
	}
	// Second pass can't know lower off-diagonals added later; add a
	// global diagonal boost to guarantee SPD.
	m := t.Compile()
	d := m.Diag()
	boost := sparse.NewTriplet(n, n, n)
	for i := 0; i < n; i++ {
		rowAbs := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				rowAbs += math.Abs(m.At(i, j))
			}
		}
		if d[i] <= rowAbs {
			boost.Add(i, i, rowAbs-d[i]+1)
		} else {
			boost.Add(i, i, 0)
		}
	}
	return sparse.Add(1, m, 1, boost.Compile())
}

func residualInf(a *sparse.Matrix, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	max := 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

func TestEtreeChain(t *testing.T) {
	// Tridiagonal matrix: etree is a path 0->1->...->n-1.
	a := laplacian2D(1, 6, 0).UpperTriangle()
	parent := etree(a)
	for k := 0; k < 5; k++ {
		if parent[k] != k+1 {
			t.Errorf("parent[%d] = %d, want %d", k, parent[k], k+1)
		}
	}
	if parent[5] != -1 {
		t.Errorf("root parent = %d, want -1", parent[5])
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(20)
		a := randomSPD(rng, n, 0.3)
		f, err := Cholesky(a, nil)
		if err != nil {
			t.Fatalf("Cholesky: %v", err)
		}
		// L·Lᵀ must equal A.
		llt := sparse.Mul(f.L, f.L.Transpose())
		diff := sparse.Add(1, llt, -1, a)
		for _, v := range diff.Val {
			if math.Abs(v) > 1e-10 {
				t.Fatalf("reconstruction error %g", v)
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, perm := range [][]int{nil} {
		for trial := 0; trial < 10; trial++ {
			n := 2 + rng.Intn(30)
			a := randomSPD(rng, n, 0.2)
			f, err := Cholesky(a, perm)
			if err != nil {
				t.Fatalf("Cholesky: %v", err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := f.Solve(b)
			if r := residualInf(a, x, b); r > 1e-9 {
				t.Fatalf("residual %g", r)
			}
		}
	}
}

func TestCholeskyWithOrderings(t *testing.T) {
	a := laplacian2D(12, 15, 0.1)
	g := order.NewGraph(a)
	b := make([]float64, a.Rows)
	rng := rand.New(rand.NewSource(3))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var refX []float64
	for _, tc := range []struct {
		name string
		perm []int
	}{
		{"natural", nil},
		{"rcm", order.RCM(g)},
		{"nd", order.NestedDissection(g, 8)},
		{"md", order.MinimumDegree(g)},
	} {
		f, err := Cholesky(a, tc.perm)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x := f.Solve(b)
		if r := residualInf(a, x, b); r > 1e-9 {
			t.Fatalf("%s: residual %g", tc.name, r)
		}
		if refX == nil {
			refX = x
		} else {
			for i := range x {
				if math.Abs(x[i]-refX[i]) > 1e-8 {
					t.Fatalf("%s: solution differs from natural at %d", tc.name, i)
				}
			}
		}
		t.Logf("%s: nnz(L) = %d", tc.name, f.Sym.LNNZ())
	}
}

func TestCholeskyOrderingReducesFactorNNZ(t *testing.T) {
	a := laplacian2D(20, 20, 0.1)
	g := order.NewGraph(a)
	nat := CholAnalyze(a, nil).LNNZ()
	nd := CholAnalyze(a, order.NestedDissection(g, 16)).LNNZ()
	t.Logf("nnz(L): natural %d, nd %d", nat, nd)
	if nd >= nat {
		t.Errorf("ND factor nnz %d should beat natural %d", nd, nat)
	}
}

func TestCholeskyFactorizeReuse(t *testing.T) {
	a := laplacian2D(8, 8, 0.1)
	sym := CholAnalyze(a, nil)
	f1, err := sym.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scale values (same pattern), refactor reusing storage.
	a2 := a.Clone().Scale(2.5)
	f2, err := sym.Factorize(a2, f1)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := f2.Solve(b)
	if r := residualInf(a2, x, b); r > 1e-9 {
		t.Fatalf("refactorized residual %g", r)
	}
	if &f2.L.Val[0] != &f1.L.Val[0] {
		t.Error("refactorization did not reuse storage")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := sparse.FromDense([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := Cholesky(a, nil); err == nil {
		t.Error("expected ErrNotPositiveDefinite")
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(25)
		// Unsymmetric, diagonally dominant-ish matrix.
		tr := sparse.NewTriplet(n, n, n*4)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 5+rng.Float64())
			for k := 0; k < 3; k++ {
				j := rng.Intn(n)
				if j != i {
					tr.Add(i, j, rng.NormFloat64())
				}
			}
		}
		a := tr.Compile()
		f, err := LU(a, nil)
		if err != nil {
			t.Fatalf("LU: %v", err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := f.Solve(b)
		if r := residualInf(a, x, b); r > 1e-8 {
			t.Fatalf("LU residual %g", r)
		}
	}
}

func TestLUWithColumnOrdering(t *testing.T) {
	a := laplacian2D(10, 12, 0.2)
	g := order.NewGraph(a)
	q := order.NestedDissection(g, 8)
	f, err := LU(a, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := f.Solve(b)
	if r := residualInf(a, x, b); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
}

func TestLUPivotsPermutedRows(t *testing.T) {
	// A matrix that requires pivoting: zero diagonal.
	a := sparse.FromDense([][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 2},
	})
	f, err := LU(a, nil)
	if err != nil {
		t.Fatalf("LU with zero diagonal should pivot: %v", err)
	}
	x := f.Solve([]float64{1, 2, 3})
	want := []float64{2, 1, 1.5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := LU(a, nil); err == nil {
		t.Error("expected ErrSingular for a rank-1 matrix")
	}
}

func TestCholeskyMatchesLU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(rng, n, 0.3)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cf, err := Cholesky(a, nil)
		if err != nil {
			return false
		}
		lf, err := LU(a, nil)
		if err != nil {
			return false
		}
		xc := cf.Solve(b)
		xl := lf.Solve(b)
		for i := range xc {
			if math.Abs(xc[i]-xl[i]) > 1e-7*(1+math.Abs(xc[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveToAliasing(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(6)), 12, 0.3)
	f, err := Cholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 12)
	for i := range b {
		b[i] = float64(i)
	}
	borig := append([]float64(nil), b...)
	f.SolveTo(b, b) // aliased
	if r := residualInf(a, b, borig); r > 1e-9 {
		t.Fatalf("aliased SolveTo residual %g", r)
	}
}

func TestLowerSolveUnit(t *testing.T) {
	// Explicit tiny case for the triangular kernels.
	l := sparse.FromDense([][]float64{
		{2, 0},
		{1, 3},
	})
	x := []float64{4, 11}
	LowerSolve(l, x)
	if x[0] != 2 || x[1] != 3 {
		t.Errorf("LowerSolve got %v", x)
	}
	y := []float64{7, 9}
	LowerTransposeSolve(l, y)
	// Lᵀ y' = y: [2 1; 0 3] y' = [7,9] -> y'1 = 3, y'0 = (7-3)/2 = 2
	if y[1] != 3 || y[0] != 2 {
		t.Errorf("LowerTransposeSolve got %v", y)
	}
}

package iterative

import (
	"math"
	"math/rand"
	"testing"

	"opera/internal/factor"
	"opera/internal/sparse"
)

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

func TestCGMatchesDirect(t *testing.T) {
	a := laplacian2D(15, 15, 0.05)
	n := a.Rows
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	direct, err := factor.Cholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	xd := direct.Solve(b)
	for _, tc := range []struct {
		name string
		m    Preconditioner
	}{
		{"none", nil},
		{"jacobi", mustJacobi(t, a)},
		{"ic0", mustIC0(t, a)},
	} {
		x := make([]float64, n)
		res, err := CG(a, x, b, CGOptions{Tol: 1e-12, M: tc.m})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %d iterations, residual %.3g", tc.name, res.Iterations, res.Residual)
		for i := range x {
			if math.Abs(x[i]-xd[i]) > 1e-7*(1+math.Abs(xd[i])) {
				t.Fatalf("%s: x[%d] = %g, direct %g", tc.name, i, x[i], xd[i])
			}
		}
	}
}

func mustJacobi(t *testing.T, a *sparse.Matrix) *Jacobi {
	t.Helper()
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func mustIC0(t *testing.T, a *sparse.Matrix) *IC0 {
	t.Helper()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

func TestIC0ExactOnTridiagonal(t *testing.T) {
	// A tridiagonal SPD matrix has a Cholesky factor with no fill, so
	// IC(0) must be exact.
	a := laplacian2D(1, 20, 0.1)
	ic := mustIC0(t, a)
	full, err := factor.Cholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := sparse.Add(1, ic.L, -1, full.L)
	for _, v := range diff.Val {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("IC(0) deviates from exact Cholesky by %g on a no-fill matrix", v)
		}
	}
}

func TestIC0ReducesIterations(t *testing.T) {
	a := laplacian2D(30, 30, 0.01)
	n := a.Rows
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x0 := make([]float64, n)
	plain, err := CG(a, x0, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, n)
	pre, err := CG(a, x1, b, CGOptions{Tol: 1e-10, M: mustIC0(t, a)})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain %d iters, ic0 %d iters", plain.Iterations, pre.Iterations)
	if pre.Iterations >= plain.Iterations {
		t.Errorf("IC(0) (%d iters) should beat plain CG (%d iters)", pre.Iterations, plain.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian2D(4, 4, 0.1)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1 // nonzero start
	}
	res, err := CG(a, x, make([]float64, a.Rows), CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual != 0 {
		t.Errorf("residual %g", res.Residual)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, x[i])
		}
	}
}

func TestCGNonConvergenceReported(t *testing.T) {
	a := laplacian2D(10, 10, 0)
	b := make([]float64, a.Rows)
	b[0] = 1
	x := make([]float64, a.Rows)
	_, err := CG(a, x, b, CGOptions{Tol: 1e-14, MaxIter: 2})
	if err == nil {
		t.Error("expected ErrNoConvergence with MaxIter=2")
	}
}

func TestCGWarmStart(t *testing.T) {
	a := laplacian2D(12, 12, 0.05)
	n := a.Rows
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	cold := make([]float64, n)
	resCold, err := CG(a, cold, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the solution: should converge immediately.
	warm := append([]float64(nil), cold...)
	resWarm, err := CG(a, warm, b, CGOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.Iterations > 2 {
		t.Errorf("warm start took %d iterations (cold %d)", resWarm.Iterations, resCold.Iterations)
	}
}

func TestOperatorAndPrecondFuncAdapters(t *testing.T) {
	// Matrix-free CG through the function adapters: solve 2x = b.
	op := OperatorFunc(func(y, x []float64) {
		for i := range y {
			y[i] = 2 * x[i]
		}
	})
	pre := PrecondFunc(func(z, r []float64) {
		for i := range z {
			z[i] = r[i] / 2
		}
	})
	b := []float64{4, -6, 10}
	x := make([]float64, 3)
	res, err := CG(op, x, b, CGOptions{Tol: 1e-14, M: pre})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("perfectly preconditioned CG took %d iterations", res.Iterations)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]/2) > 1e-12 {
			t.Errorf("x[%d] = %g", i, x[i])
		}
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	a := sparse.FromDense([][]float64{{1, 0}, {0, -1}})
	x := make([]float64, 2)
	if _, err := CG(a, x, []float64{0, 1}, CGOptions{MaxIter: 10}); err == nil {
		t.Error("CG on an indefinite matrix should report breakdown")
	}
}

func TestJacobiRejectsNonpositiveDiagonal(t *testing.T) {
	a := sparse.FromDense([][]float64{{1, 0}, {0, 0}})
	if _, err := NewJacobi(a); err == nil {
		t.Error("zero diagonal accepted")
	}
}

// checkTopCG is the CG loop that tests convergence at the top of each
// pass, after preconditioning the residual it was handed: the
// reference for CG's test-before-precondition order.
func checkTopCG(a Operator, x, b []float64, tol float64, maxIter int, m Preconditioner) (CGResult, error) {
	n := len(b)
	r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := norm2(b)
	m.Precondition(z, r)
	copy(p, z)
	rz := dot(r, z)
	for it := 0; it < maxIter; it++ {
		rn := norm2(r)
		if rn/bnorm <= tol {
			return CGResult{Iterations: it, Residual: rn / bnorm}, nil
		}
		a.MulVec(ap, p)
		alpha := rz / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		m.Precondition(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: maxIter, Residual: norm2(r) / bnorm}, ErrNoConvergence
}

// TestCGTestsBeforePreconditioning checks that CG tests convergence
// right after the x/r update: x, the iteration count and the residual
// are bitwise those of the check-at-the-top loop, which preconditions
// once more per solve, and the preconditioner runs once per iteration,
// or not at all when the warm start already converges.
func TestCGTestsBeforePreconditioning(t *testing.T) {
	a := laplacian2D(15, 15, 0.05)
	n := a.Rows
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	converged := make([]float64, n)
	if _, err := CG(a, converged, b, CGOptions{Tol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	exact := PrecondFunc(func(z, r []float64) { copy(z, r) })
	for _, tc := range []struct {
		name string
		m    Preconditioner
		x0   []float64
	}{
		{"none", Identity{}, nil},
		{"jacobi", mustJacobi(t, a), nil},
		{"ic0", mustIC0(t, a), nil},
		{"warm-ic0", mustIC0(t, a), converged},
		{"identity-system", exact, nil},
	} {
		op := Operator(a)
		if tc.name == "identity-system" {
			op = OperatorFunc(func(y, x []float64) { copy(y, x) })
		}
		var calls, refCalls int
		count := func(n *int, m Preconditioner) Preconditioner {
			return PrecondFunc(func(z, r []float64) { *n++; m.Precondition(z, r) })
		}
		x, xRef := make([]float64, n), make([]float64, n)
		if tc.x0 != nil {
			copy(x, tc.x0)
			copy(xRef, tc.x0)
		}
		got, err := CG(op, x, b, CGOptions{Tol: 1e-10, MaxIter: 1000, M: count(&calls, tc.m)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := checkTopCG(op, xRef, b, 1e-10, 1000, count(&refCalls, tc.m))
		if err != nil {
			t.Fatalf("%s reference: %v", tc.name, err)
		}
		if got.Iterations != want.Iterations || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
			t.Errorf("%s: %d iterations, residual %.17g; reference %d, %.17g",
				tc.name, got.Iterations, got.Residual, want.Iterations, want.Residual)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
				t.Fatalf("%s: x[%d] = %.17g, reference %.17g", tc.name, i, x[i], xRef[i])
			}
		}
		if calls != got.Iterations || refCalls != want.Iterations+1 {
			t.Errorf("%s: %d preconditioner applies (reference %d) for %d iterations",
				tc.name, calls, refCalls, got.Iterations)
		}
		t.Logf("%s: %d iterations, %d applies (reference %d)", tc.name, got.Iterations, calls, refCalls)
	}
}

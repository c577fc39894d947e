package transient

import (
	"math"
	"math/rand"
	"testing"

	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/order"
	"opera/internal/sparse"
)

// permutedLower is the companion's permuted lower triangle as the
// refill must reproduce it: sparse.Add, then SymPerm, UpperTriangle
// and Transpose.
func permutedLower(g, c *sparse.Matrix, scale float64, perm []int) *sparse.Matrix {
	a := sparse.Add(1, g, scale, c)
	if perm != nil {
		a = a.SymPerm(perm)
	}
	return a.UpperTriangle().Transpose()
}

// TestRefactorMatchesPermutedCompanion: for every variation model, a
// stepper on the plan's G(z), C(z) under the Monte Carlo union analysis
// holds the permuted lower companion of the explicit Add → SymPerm →
// UpperTriangle → Transpose chain, bit for bit, both when NewStepper
// builds it and after Refactor refills it for the next z.
func TestRefactorMatchesPermutedCompanion(t *testing.T) {
	nl, err := grid.Build(grid.DefaultSpec(300, 17))
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func() (*mna.System, error){
		"two-variable":   func() (*mna.System, error) { return mna.Build(nl, mna.DefaultSpec()) },
		"three-variable": func() (*mna.System, error) { return mna.BuildThreeVar(nl, mna.DefaultThreeVarSpec()) },
		"correlated": func() (*mna.System, error) {
			return mna.BuildCorrelated(nl, [][]float64{{0.0049, 0.0021, 0.001}, {0.0021, 0.0025, 0.0005}, {0.001, 0.0005, 0.0044}})
		},
		"spatial": func() (*mna.System, error) {
			return mna.BuildSpatial(nl, mna.SpatialSpec{RegionsPerAxis: 2, KG: 0.25 / 3, KCL: 0.2 / 3, KIL: 0.2 / 3, CorrLength: 1, MaxDims: 3})
		},
	}
	rng := rand.New(rand.NewSource(11))
	for name, b := range build {
		sys, err := b()
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []Method{BackwardEuler, Trapezoidal} {
			opts := Options{Step: 1e-10, Steps: 1, Method: method}
			scale := 1 / opts.Step
			if method == Trapezoidal {
				scale = 2 / opts.Step
			}
			union := sys.UnionPattern()
			pattern := sparse.Add(1, union, scale, union)
			opts.Symbolic = factor.CholAnalyzeSupernodal(pattern, order.Permute(order.MethodAMD, pattern), -1)
			plan := sys.Plan()
			g, c := plan.Matrices()
			var st *Stepper
			for trial := 0; trial < 3; trial++ {
				z := make([]float64, sys.Dims())
				for k := range z {
					z[k] = 2 * rng.NormFloat64()
				}
				plan.Fill(z, g, c)
				if st == nil {
					st, err = NewStepper(g, c, opts)
				} else {
					err = st.Refactor()
				}
				if err != nil {
					t.Fatal(err)
				}
				want := permutedLower(g, c, scale, opts.Symbolic.Perm)
				got := st.lower
				if got.NNZ() != want.NNZ() {
					t.Fatalf("%s %v: lower has %d entries, want %d", name, method, got.NNZ(), want.NNZ())
				}
				for j := 0; j <= got.Cols; j++ {
					if got.Colp[j] != want.Colp[j] {
						t.Fatalf("%s %v: column pointer %d differs", name, method, j)
					}
				}
				for p := range got.Val {
					if got.Rowi[p] != want.Rowi[p] || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
						t.Fatalf("%s %v trial %d: lower entry %d is (%d, %v), want (%d, %v)",
							name, method, trial, p, got.Rowi[p], got.Val[p], want.Rowi[p], want.Val[p])
					}
				}
			}
		}
	}
}

// denseSolve solves a·x = b by Gaussian elimination with partial
// pivoting, independent of package factor.
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		for i := k + 1; i < n; i++ {
			f := m[i][k] / m[k][k]
			for j := k; j <= n; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// checkStepAgainstDense advances st one backward-Euler step from x0
// under u and compares the state with the dense solution of
// (G + C/h)·x⁺ = C/h·x0 + u.
func checkStepAgainstDense(t *testing.T, what string, st *Stepper, g, c *sparse.Matrix, h float64, x0, u []float64) {
	t.Helper()
	if err := st.Init(x0); err != nil {
		t.Fatal(err)
	}
	if err := st.Advance(u); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := len(x0)
	cx := make([]float64, n)
	c.MulVec(cx, x0)
	b := make([]float64, n)
	for i := range b {
		b[i] = cx[i]/h + u[i]
	}
	want := denseSolve(sparse.Add(1, g, 1/h, c).ToDense(), b)
	for i, v := range st.State() {
		if math.Abs(v-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: x⁺[%d] = %.15g, dense %.15g", what, i, v, want[i])
		}
	}
}

// TestLUEscalation drives the companion's Cholesky → LU escalation on
// both entry points: NewStepper on a companion made indefinite by
// negative capacitance, and Refactor after a stepper built on a
// definite companion has its C values flipped in place. Either way the
// stepper must assemble the companion for LU and step correctly; a
// refill back to a definite companion returns to the supernodal rung.
func TestLUEscalation(t *testing.T) {
	const n, h = 25, 1e-2
	g, c := ladder(n)
	neg := c.Clone().Scale(-1) // G − 0.1/h·I: indefinite
	x0 := make([]float64, n)
	u := make([]float64, n)
	for i := range x0 {
		x0[i] = 1 + 0.01*float64(i)
		u[i] = -0.05
	}
	u[0] = 12

	st, err := NewStepper(g, neg, Options{Step: h, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Factorer() != "lu" {
		t.Fatalf("NewStepper on an indefinite companion: factorer %q, want lu", st.Factorer())
	}
	checkStepAgainstDense(t, "NewStepper on LU", st, g, neg, h, x0, u)

	cc := c.Clone()
	st, err = NewStepper(g, cc, Options{Step: h, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Factorer() != "supernodal" {
		t.Fatalf("definite companion: factorer %q, want supernodal", st.Factorer())
	}
	cc.Scale(-1)
	if err := st.Refactor(); err != nil {
		t.Fatal(err)
	}
	if st.Factorer() != "lu" {
		t.Fatalf("Refactor to an indefinite companion: factorer %q, want lu", st.Factorer())
	}
	checkStepAgainstDense(t, "Refactor on LU", st, g, cc, h, x0, u)
	cc.Scale(-1)
	if err := st.Refactor(); err != nil {
		t.Fatal(err)
	}
	if st.Factorer() != "supernodal" {
		t.Fatalf("Refactor back to a definite companion: factorer %q, want supernodal", st.Factorer())
	}
	checkStepAgainstDense(t, "Refactor back on supernodal", st, g, cc, h, x0, u)
}

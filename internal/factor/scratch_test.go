package factor

import (
	"math/rand"
	"testing"

	"opera/internal/order"
)

// TestSolveToWithScratchMatchesSolveTo pins the scratch variants to the
// allocating wrappers bit for bit, with and without a fill-reducing
// permutation.
func TestSolveToWithScratchMatchesSolveTo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := laplacian2D(9, 11, 0.3)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, perm := range [][]int{nil, order.MinimumDegree(order.NewGraph(a))} {
		name := "natural"
		if perm != nil {
			name = "md"
		}
		t.Run("chol/"+name, func(t *testing.T) {
			f, err := Cholesky(a, perm)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			f.SolveTo(want, b)
			got := make([]float64, n)
			y := make([]float64, n)
			f.SolveToWithScratch(got, b, y)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("x[%d] = %.17g != %.17g", i, got[i], want[i])
				}
			}
			// Aliasing x = b must still work.
			alias := append([]float64(nil), b...)
			f.SolveToWithScratch(alias, alias, y)
			for i := range want {
				if alias[i] != want[i] {
					t.Fatalf("aliased x[%d] = %.17g != %.17g", i, alias[i], want[i])
				}
			}
		})
	}
	t.Run("lu", func(t *testing.T) {
		f, err := LU(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		f.SolveTo(want, b)
		got := make([]float64, n)
		y := make([]float64, n)
		f.SolveToWithScratch(got, b, y)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("x[%d] = %.17g != %.17g", i, got[i], want[i])
			}
		}
		alias := append([]float64(nil), b...)
		f.SolveToWithScratch(alias, alias, y)
		for i := range want {
			if alias[i] != want[i] {
				t.Fatalf("aliased x[%d] = %.17g != %.17g", i, alias[i], want[i])
			}
		}
	})
}

// TestSolveToSteadyStateAllocs pins the zero-alloc steady state of the
// pooled SolveTo wrappers (the satellite fix for the per-solve
// allocations at the old cholesky.go:182).
func TestSolveToSteadyStateAllocs(t *testing.T) {
	a := laplacian2D(12, 12, 0.5)
	n := a.Rows
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	chol, err := Cholesky(a, order.MinimumDegree(order.NewGraph(a)))
	if err != nil {
		t.Fatal(err)
	}
	lu, err := LU(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	chol.SolveTo(x, b) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { chol.SolveTo(x, b) }); allocs > 0 {
		t.Errorf("CholFactor.SolveTo allocates %.1f objects per op, want 0", allocs)
	}
	lu.SolveTo(x, b)
	if allocs := testing.AllocsPerRun(50, func() { lu.SolveTo(x, b) }); allocs > 0 {
		t.Errorf("LUFactor.SolveTo allocates %.1f objects per op, want 0", allocs)
	}
}

func BenchmarkCholSolveTo(b *testing.B) {
	a := laplacian2D(40, 40, 0.5)
	n := a.Rows
	rhs := make([]float64, n)
	x := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%11) - 5
	}
	f, err := Cholesky(a, order.MinimumDegree(order.NewGraph(a)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.SolveTo(x, rhs)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		y := make([]float64, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.SolveToWithScratch(x, rhs, y)
		}
	})
}

package factor_test

import (
	"fmt"

	"opera/internal/factor"
	"opera/internal/sparse"
)

// ExampleCholesky solves a small SPD system.
func ExampleCholesky() {
	a := sparse.FromDense([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	})
	f, err := factor.Cholesky(a, nil)
	if err != nil {
		panic(err)
	}
	x := f.Solve([]float64{3, 2, 3})
	fmt.Printf("x = [%.3f %.3f %.3f]\n", x[0], x[1], x[2])
	// Output:
	// x = [1.000 1.000 1.000]
}

// ExampleCholSymbolic_Factorize shows the Monte Carlo pattern: one
// symbolic analysis, many numeric refactorizations sharing storage.
func ExampleCholSymbolic_Factorize() {
	a := sparse.FromDense([][]float64{{4, -1}, {-1, 4}})
	sym := factor.CholAnalyze(a, nil)
	f1, _ := sym.Factorize(a, nil)
	// A scaled sample (same pattern) recycles f1's storage.
	a2 := a.Clone().Scale(2)
	f2, _ := sym.Factorize(a2, f1)
	x := f2.Solve([]float64{6, 6})
	fmt.Printf("x = [%.0f %.0f]\n", x[0], x[1])
	// Output:
	// x = [1 1]
}

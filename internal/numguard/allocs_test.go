//go:build !race

package numguard

import "testing"

// TestSolveManySteadyStateAllocs pins the batched ladder's hot-loop
// contract: with its pooled scratch warm, a verified SolveMany
// allocates nothing. (The race detector makes sync.Pool drop entries at
// random, so the pin runs only without it.)
func TestSolveManySteadyStateAllocs(t *testing.T) {
	batches := 0
	lad := NewLadder("step", Config{VerifyEvery: 1}, spd2, spd2.normInf(), []Rung{{Name: "exact",
		Prepare: func() (Solver, error) { return batchSolver{Solver: SolverFunc(spd2Solve), batches: &batches}, nil }}}, nil)
	b := [][]float64{{5, 4}, {1, -2}, {0, 3}}
	x := [][]float64{make([]float64, 2), make([]float64, 2), make([]float64, 2)}
	if err := lad.SolveMany(1, x, b); err != nil { // prepare the rung, warm the pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := lad.SolveMany(1, x, b); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Ladder.SolveMany allocates %.1f objects per op, want 0", allocs)
	}
}

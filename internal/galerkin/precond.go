package galerkin

import (
	"fmt"

	"opera/internal/numguard"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// kronPrecond applies z = (I_B ⊗ S⁻¹)·r to node-major vectors, the
// coupled CG's block-diagonal mean preconditioner: S is the mean
// companion G₀ + C₀/h for the steps and G₀ for DC, G₀ and C₀ the
// identity-coupled (ξ-free) parts of the operators. Each worker's
// contiguous range of chaos columns is gathered out of r, solved in one
// batched solve and scattered to z; a batched solve is bitwise the
// column-by-column one, so z is bit-identical for every worker count.
type kronPrecond struct {
	workers int
	fac     numguard.Solver
	cols    [][]float64 // the B column buffers, each of length n
}

// newKronPrecond factors s through a scalar ladder of its own, so that
// a mean companion that defeats Cholesky falls back to LU rather than
// aborting.
func newKronPrecond(stage string, s *sparse.Matrix, perm []int, cols [][]float64, opts Options, workers int, rep *numguard.Report, st *factorStats) (*kronPrecond, *numguard.Ladder, error) {
	lad := numguard.NewLadder(stage, opts.Guard, s, s.NormInf(), scalarRungs(s, nil, perm, workers, opts.Guard, opts.ForceLU, st), rep)
	fac, err := lad.Solver(0)
	if err != nil {
		return nil, nil, fmt.Errorf("galerkin: mean %s factorization: %w", stage, err)
	}
	return &kronPrecond{workers: workers, fac: fac, cols: cols}, lad, nil
}

// Precondition implements iterative.Preconditioner.
func (p *kronPrecond) Precondition(z, r []float64) {
	b := len(p.cols)
	if err := parallel.Split(p.workers, b, func(_, lo, hi int) error {
		cols := p.cols[lo:hi]
		for k, col := range cols {
			for i := range col {
				col[i] = r[i*b+lo+k]
			}
		}
		solveCols(p.fac, cols)
		for k, col := range cols {
			for i, v := range col {
				z[i*b+lo+k] = v
			}
		}
		return nil
	}); err != nil {
		panic(err) // a panic in a solve: re-raise it on the caller
	}
}

// solveCols solves every column in place on f: one batched SolveMany
// when f offers it (a SuperFactor, bitwise equal per column to
// SolveTo), column by column otherwise (a ladder escalated to LU).
func solveCols(f numguard.Solver, cols [][]float64) {
	if ms, ok := f.(numguard.ManySolver); ok {
		ms.SolveMany(cols, cols)
		return
	}
	for _, col := range cols {
		f.SolveTo(col, col)
	}
}

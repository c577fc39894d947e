package galerkin

import (
	"fmt"

	"opera/internal/factor"
	"opera/internal/iterative"
	"opera/internal/numguard"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// This file wires the numguard escalation ladder into the Galerkin
// solve paths. Every ladder runs supernodal Cholesky → lu → cg+ic0 on
// a CSC matrix: scalar systems (the eigenbasis factors, the coupled
// preconditioner) and the node-major block companion of the coupled
// path's direct solve alike. The Cholesky rung's wire name tells the
// two apart: "supernodal" on scalar systems, "block-cholesky" on the
// block companion, so health reports, Result.Factorer and fault
// injection name the block ladder alone. A second Cholesky of the same
// matrix under the same permutation would fail the same way, so the
// next rung is LU with a pivot-growth acceptance check, which does not
// depend on positive definiteness, and IC(0)-preconditioned CG is the
// last resort.

// expandPerm lifts a node permutation to node-major scalar indexing
// (global unknown i·B+m).
func expandPerm(perm []int, b int) []int {
	if perm == nil {
		return nil
	}
	out := make([]int, len(perm)*b)
	for k, p := range perm {
		for m := 0; m < b; m++ {
			out[k*b+m] = p*b + m
		}
	}
	return out
}

// factorStats receives the cost facts of the first successful direct
// factorization of a ladder: scalar nonzero count, symbolic flop
// estimate, and fill ratio nnz(L)/nnz(upper(A)). A later escalation
// overwrites them (the costlier factor is the one the solve ran on).
type factorStats struct {
	nnz   int
	flops int64
	fill  float64
}

func (st *factorStats) set(nnz int, flops int64, fill float64) {
	if st == nil {
		return
	}
	st.nnz = nnz
	st.flops = flops
	st.fill = fill
}

// scalarRungs builds the ladder rungs for a scalar (n×n) system
// matrix: supernodal → lu → cg+ic0.
func scalarRungs(a *sparse.Matrix, sym *factor.SuperSymbolic, perm []int, workers int, cfg numguard.Config, forceLU bool, st *factorStats) []numguard.Rung {
	return ladderRungs("supernodal", a, sym, perm, workers, cfg, forceLU, st)
}

// blockRungs builds the ladder rungs for a node-major block companion
// (assembleBlock) under the node permutation perm, lifted to its b
// unknowns per node: block-cholesky → lu → cg+ic0.
func blockRungs(a *sparse.Matrix, perm []int, b, workers int, cfg numguard.Config, forceLU bool, st *factorStats) []numguard.Rung {
	return ladderRungs("block-cholesky", a, nil, expandPerm(perm, b), workers, cfg, forceLU, st)
}

// ladderRungs builds a ladder over the symmetric matrix a: the
// supernodal Cholesky rung named chol, factoring on sym (a shared
// analysis of a pattern holding a's; nil analyzes a under perm) → lu
// (pivot-growth checked) → cg+ic0. forceLU drops the Cholesky rung (the
// ablation switch). workers caps the supernodal factorization's task
// pool — the factor is bit-identical for every value. st, when
// non-nil, receives the
// factor's cost facts on each successful direct factorization.
func ladderRungs(chol string, a *sparse.Matrix, sym *factor.SuperSymbolic, perm []int, workers int, cfg numguard.Config, forceLU bool, st *factorStats) []numguard.Rung {
	cfg = cfg.WithDefaults()
	var out []numguard.Rung
	if !forceLU {
		out = append(out, numguard.Rung{Name: chol, Prepare: func() (numguard.Solver, error) {
			sym := sym
			if sym == nil {
				sym = factor.CholAnalyzeSupernodal(a, perm, -1)
			}
			f, err := sym.Factorize(a, nil, parallel.Workers(workers))
			if err != nil {
				return nil, err
			}
			st.set(sym.LNNZ(), sym.FlopEstimate(), sym.FillRatio())
			return f, nil
		}})
	}
	return append(out, luRung(a, perm, cfg.PivotGrowthMax, st), cgRung(a))
}

// luRung factors with partial-pivoting LU and rejects factors whose
// element growth signals lost backward stability.
func luRung(a *sparse.Matrix, perm []int, growthMax float64, st *factorStats) numguard.Rung {
	return numguard.Rung{Name: "lu", Prepare: func() (numguard.Solver, error) {
		f, err := factor.LU(a, perm)
		if err != nil {
			return nil, err
		}
		if g := f.PivotGrowth(a); g > growthMax {
			return nil, fmt.Errorf("pivot growth %.3g exceeds %.3g", g, growthMax)
		}
		fill := 0.0
		if annz := a.NNZ(); annz > 0 {
			fill = float64(f.NNZ()) / float64(annz)
		}
		st.set(f.NNZ(), f.FlopEstimate(), fill)
		return f, nil
	}}
}

// cgRung is the last resort: IC(0)-preconditioned conjugate gradients,
// cold-started per solve. Convergence failures are left to the ladder's
// residual verification — the rung never returns an unverified answer
// as success.
func cgRung(a *sparse.Matrix) numguard.Rung {
	return numguard.Rung{Name: "cg+ic0", Prepare: func() (numguard.Solver, error) {
		pre, err := iterative.NewIC0(a)
		if err != nil {
			return nil, fmt.Errorf("IC(0) preconditioner: %w", err)
		}
		return numguard.SolverFunc(func(x, b []float64) {
			// Copy b first: callers may alias x and b, and CG needs a
			// zeroed cold start.
			rhs := append([]float64(nil), b...)
			for i := range x {
				x[i] = 0
			}
			// The error is deliberately dropped: the ladder verifies the
			// residual of whatever CG produced and diagnoses on failure.
			_, _ = iterative.CG(a, x, rhs, iterative.CGOptions{Tol: 1e-12, MaxIter: 20 * len(b), M: pre})
		}), nil
	}}
}

package galerkin

import (
	"fmt"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/iterative"
	"opera/internal/numguard"
	"opera/internal/numguard/inject"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// solveCoupledIterative is the paper's §5.2 alternative: instead of
// factoring the (N+1)·n augmented companion, keep only one *scalar*
// factorization of the mean companion G₀ + C₀/h and solve each time
// step by conjugate gradients on the block system, preconditioned by
// I_{N+1} ⊗ (G₀ + C₀/h)⁻¹ — the "iterative block solver with an
// appropriate pre-conditioner". The preconditioned spectrum clusters
// around 1 (the coupling terms carry the small variation
// sensitivities), so a handful of iterations per step suffices. Memory
// drops from O((N+1)²·nnz(L)) to O(nnz(L)); the trade is CG matvecs per
// step.
func solveCoupledIterative(sys *System, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b := sys.N, sys.Basis.Size()
	spO := tr.Start("order", obs.String("ordering", opts.Ordering.String()), obs.Int("n", n))
	pattern := unionScalarPattern(sys)
	perm := order.Permute(opts.Ordering, pattern)
	spO.End()

	spF := tr.Start("factor")
	spAsm := tr.Start("galerkin.assemble", obs.Int("n", n), obs.Int("basis", b))
	comp := factor.NewBlockMatrix(pattern, b)
	for _, t := range sys.GTerms {
		comp.AddTerm(t.Coupling, t.A)
	}
	var cBM *factor.BlockMatrix
	if len(sys.CTerms) > 0 {
		cBM = factor.NewBlockMatrix(pattern, b)
		for _, t := range sys.CTerms {
			cBM.AddTerm(t.Coupling, t.A)
			comp.AddTerm(t.Coupling.Clone().Scale(1/opts.Step), t.A)
		}
	}
	gBM := factor.NewBlockMatrix(pattern, b)
	for _, t := range sys.GTerms {
		gBM.AddTerm(t.Coupling, t.A)
	}

	// Mean (identity-coupling) scalar matrices. The preconditioner
	// factors go through mini-ladders of their own: a mean companion
	// that defeats Cholesky falls back to LU rather than aborting.
	res := Result{Factorer: "cg+mean-precond", AugmentedN: n * b}
	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	res.guard = rep
	g0 := meanTermSum(sys.GTerms, n)
	c0 := meanTermSum(sys.CTerms, n)
	scalarComp := sparse.Add(1, g0, 1/opts.Step, c0)
	spAsm.End()
	st := &factorStats{}
	compLad := numguard.NewLadder("precond", opts.Guard, scalarComp, scalarComp.NormInf(),
		scalarRungs(scalarComp, perm, opts.Workers, opts.Guard, false, st), rep)
	compFac, err := compLad.Solver(0)
	if err != nil {
		return Result{}, fmt.Errorf("galerkin: iterative path mean factorization: %w", err)
	}
	g0Lad := numguard.NewLadder("precond-dc", opts.Guard, g0, g0.NormInf(),
		scalarRungs(g0, perm, opts.Workers, opts.Guard, false, nil), rep)
	g0Fac, err := g0Lad.Solver(0)
	if err != nil {
		return Result{}, fmt.Errorf("galerkin: iterative path DC factorization: %w", err)
	}
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", compLad.Rung()), obs.Int("factor_nnz", res.FactorNNZ))
	spF.End()

	// Block-diagonal preconditioner: apply the scalar factor to each
	// chaos coefficient's sub-vector.
	zc := make([]float64, n)
	makePre := func(f numguard.Solver) iterative.Preconditioner {
		return iterative.PrecondFunc(func(z, r []float64) {
			for m := 0; m < b; m++ {
				for i := 0; i < n; i++ {
					zc[i] = r[i*b+m]
				}
				f.SolveTo(zc, zc)
				for i := 0; i < n; i++ {
					z[i*b+m] = zc[i]
				}
			}
		})
	}
	preComp := makePre(compFac)
	preG := makePre(g0Fac)

	nb := n * b
	x := make([]float64, nb)
	rhs := make([]float64, nb)
	work := make([]float64, nb)
	rhsBlocks := make([][]float64, b)
	outBlocks := make([][]float64, b)
	for m := 0; m < b; m++ {
		rhsBlocks[m] = make([]float64, n)
		outBlocks[m] = make([]float64, n)
	}
	pack := func(blocks [][]float64, dst []float64) {
		for m := 0; m < b; m++ {
			src := blocks[m]
			for i := 0; i < n; i++ {
				dst[i*b+m] = src[i]
			}
		}
	}
	unpack := func(src []float64, blocks [][]float64) {
		for m := 0; m < b; m++ {
			dst := blocks[m]
			for i := 0; i < n; i++ {
				dst[i] = src[i*b+m]
			}
		}
	}

	spT := tr.Start("transient", obs.Int("steps", opts.Steps))
	spT.MarkAllocsApprox() // parallel block apply runs on worker goroutines
	defer spT.End()
	workers := parallel.Workers(opts.Workers)
	reg := tr.Registry()
	reg.Gauge("parallel.workers").Set(float64(workers))
	stepMS := reg.Histogram("galerkin.step_ms", obs.MSBuckets)
	stepsTotal := reg.Counter("galerkin.steps_total")
	cgIters := reg.Counter("galerkin.cg_iterations_total")

	// On CG breakdown or a poisoned state the path escalates to the
	// direct block ladder (block-cholesky → lu → cg+ic0) and
	// re-solves the failing step there — correctness over the memory
	// economy that motivated the iterative path.
	var direct *numguard.Ladder
	escalate := func(step int, op *factor.BlockMatrix, cause error) error {
		if cause == nil {
			rep.NonFinite()
		}
		reason := "non-finite solution"
		if cause != nil {
			reason = cause.Error()
		}
		rep.AddTransition(numguard.Transition{
			Stage: "step", Step: step, From: "cg+mean-precond", To: "block-cholesky", Reason: reason,
		})
		if step > 0 {
			rep.AddStepRetry()
		}
		if direct == nil {
			direct = numguard.NewLadder("step", opts.Guard, comp, comp.NormInf(),
				blockRungs(comp, perm, opts.Guard, false, nil), rep)
		}
		if op == comp {
			return direct.Solve(step, x, rhs)
		}
		dcLad := numguard.NewLadder("dc", opts.Guard, op, op.NormInf(),
			blockRungs(op, perm, opts.Guard, false, nil), rep)
		return dcLad.Solve(step, x, rhs)
	}

	sys.RHS(0, rhsBlocks)
	pack(rhsBlocks, rhs)
	cgOpts := iterative.CGOptions{Tol: 1e-11, MaxIter: 1000}
	cgOpts.M = preG
	r0, cgErr := iterative.CG(gBM, x, rhs, cgOpts)
	inject.CorruptSolve("cg+mean-precond", 0, x)
	if cgErr != nil || !numguard.Finite(x) {
		if e := escalate(0, gBM, cgErr); e != nil {
			return Result{}, fmt.Errorf("galerkin: iterative DC solve: %w", e)
		}
	} else {
		cgIters.Add(int64(r0.Iterations))
		// CG is residual-controlled (‖b−Ax‖₂/‖b‖₂ ≤ tol).
		rep.Accept(r0.Residual)
	}
	if visit != nil {
		unpack(x, outBlocks)
		visit(0, 0, outBlocks)
	}
	cgOpts.M = preComp
	for k := 1; k <= opts.Steps; k++ {
		if err := cancel.Poll(opts.Ctx, "galerkin.iterative", k); err != nil {
			return Result{}, err
		}
		t := float64(k) * opts.Step
		stepStart := time.Now()
		sys.RHS(t, rhsBlocks)
		pack(rhsBlocks, rhs)
		if cBM != nil {
			// Gather-form apply at every worker count (including 1), so
			// the trajectory never depends on Workers.
			cBM.MulVecSym(work, x, workers)
			for i := range rhs {
				rhs[i] += work[i] / opts.Step
			}
		}
		if direct != nil {
			// Already escalated: stay on the verified direct ladder.
			if err := direct.Solve(k, x, rhs); err != nil {
				return Result{}, fmt.Errorf("galerkin: iterative step %d: %w", k, err)
			}
		} else {
			// Warm start from the previous step's solution.
			rk, cgErr := iterative.CG(comp, x, rhs, cgOpts)
			inject.CorruptSolve("cg+mean-precond", k, x)
			if cgErr != nil || !numguard.Finite(x) {
				if e := escalate(k, comp, cgErr); e != nil {
					return Result{}, fmt.Errorf("galerkin: iterative step %d: %w", k, e)
				}
			} else {
				cgIters.Add(int64(rk.Iterations))
				rep.Accept(rk.Residual)
			}
		}
		stepMS.ObserveSince(stepStart)
		stepsTotal.Inc()
		opts.Progress.Mark()
		if visit != nil {
			unpack(x, outBlocks)
			visit(k, t, outBlocks)
		}
		res.StepsRun = k
	}
	if direct != nil {
		res.Factorer = "cg+mean-precond→" + direct.Rung()
		res.CondEst = direct.CondEstimate(nb)
	} else {
		// The mean-companion preconditioner is the operator CG ran
		// against; its κ₁ is the meaningful per-job conditioning signal.
		res.CondEst = compLad.CondEstimate(n)
	}
	return res, nil
}

// meanTermSum adds the node matrices of terms whose coupling is the
// identity (the ξ-free mean part of the operator).
func meanTermSum(ts []Term, n int) *sparse.Matrix {
	acc := sparse.NewMatrix(n, n)
	for _, t := range ts {
		if isIdentity(t.Coupling) {
			acc = sparse.Add(1, acc, 1, t.A)
		}
	}
	return acc
}

// isIdentity reports whether m is exactly the identity matrix.
func isIdentity(m *sparse.Matrix) bool {
	if m.Rows != m.Cols || m.NNZ() != m.Rows {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		if m.Colp[j+1] != j+1 || m.Rowi[j] != j || m.Val[j] != 1 {
			return false
		}
	}
	return true
}

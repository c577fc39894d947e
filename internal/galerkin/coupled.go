package galerkin

import (
	"errors"
	"fmt"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/iterative"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// solveCoupled runs the general OPERA path. The augmented companion
// matrix G̃ + C̃/h is kept in block form — the scalar grid sparsity
// pattern with one dense (N+1)×(N+1) chaos block per entry — and
// factored once with the block Cholesky, whose elimination tree and
// fill are those of the *n-node* grid rather than the (N+1)·n scalar
// graph. The DC initialization G̃·a(0) = Ũ(0) is solved by conjugate
// gradients preconditioned with the companion factor (G̃ differs from
// it only by C̃/h, which is small at power-grid time constants), so the
// whole transient costs a single factorization. If the block Cholesky
// reports an indefinite matrix (possible under extreme variation
// magnitudes where the Gaussian linear model loses positivity), the
// numguard escalation ladder takes over: pivot-growth-checked LU on
// the expanded CSC system, then IC(0)-preconditioned CG, with every
// transition recorded and every accepted solve residual-verified.
func solveCoupled(sys *System, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b := sys.N, sys.Basis.Size()
	// Scalar union pattern over every operator term.
	spO := tr.Start("order", obs.String("ordering", opts.Ordering.String()), obs.Int("n", n))
	pattern := unionScalarPattern(sys)
	perm := order.Permute(opts.Ordering, pattern)
	spO.End()

	// Predict the block factor's memory from the scalar symbolic
	// analysis and fall back to the §5.2 iterative path when it exceeds
	// the budget: nnz(L_scalar)·B²·8 bytes of values.
	budget := opts.MemoryBudget
	if budget == 0 {
		budget = 4 << 30
	}
	if budget > 0 {
		sym := factor.CholAnalyze(pattern, perm)
		need := int64(sym.LNNZ()) * int64(b*b) * 8
		if need > budget {
			return solveCoupledIterative(sys, opts, visit)
		}
	}

	spF := tr.Start("factor")
	// Companion G̃ + C̃/h and the separate C̃ (needed for stepping).
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
	spAsm.End()

	res := Result{AugmentedN: n * b}
	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	res.guard = rep
	st := &factorStats{}
	lad := numguard.NewLadder("step", opts.Guard, comp, comp.NormInf(),
		blockRungs(comp, perm, opts.Guard, opts.ForceLU, st), rep)
	sol, err := lad.Solver(0)
	if err != nil {
		return Result{}, fmt.Errorf("galerkin: companion factorization: %w", err)
	}
	res.Factorer = lad.Rung()
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", lad.Rung()), obs.Int("factor_nnz", res.FactorNNZ))
	spF.End()

	// Node-major state and workspaces.
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
	spT.MarkAllocsApprox() // row-partitioned parallel apply runs on worker goroutines
	defer spT.End()
	workers := parallel.Workers(opts.Workers)
	reg := tr.Registry()
	reg.Gauge("parallel.workers").Set(float64(workers))
	stepMS := reg.Histogram("galerkin.step_ms", obs.MSBuckets)
	stepsTotal := reg.Counter("galerkin.steps_total")
	cgIters := reg.Counter("galerkin.cg_iterations_total")

	// DC init by companion-preconditioned CG on G̃ (the companion factor
	// differs from G̃ only by C̃/h, small at power-grid time constants).
	sys.RHS(0, rhsBlocks)
	pack(rhsBlocks, rhs)
	pre := iterative.PrecondFunc(func(z, r []float64) { sol.SolveTo(z, r) })
	r0, cgErr := iterative.CG(gBM, x, rhs, iterative.CGOptions{
		Tol: 1e-12, MaxIter: 200, M: pre,
	})
	cgIters.Add(int64(r0.Iterations))
	if cgErr != nil || !numguard.Finite(x) {
		// Stiff step sizes can defeat the preconditioner; run the DC
		// solve through its own ladder on G̃ as a (rare) fallback.
		if cgErr == nil {
			cgErr = errors.New("non-finite DC solution")
			rep.NonFinite()
		}
		rep.AddTransition(numguard.Transition{
			Stage: "dc", From: "cg+companion-precond", To: "ladder",
			Reason: fmt.Sprintf("CG failed: %v", cgErr),
		})
		dcLad := numguard.NewLadder("dc", opts.Guard, gBM, gBM.NormInf(),
			blockRungs(gBM, perm, opts.Guard, opts.ForceLU, nil), rep)
		if err := dcLad.Solve(0, x, rhs); err != nil {
			return Result{}, fmt.Errorf("galerkin: DC solve: %w", err)
		}
	}
	if visit != nil {
		unpack(x, outBlocks)
		visit(0, 0, outBlocks)
	}
	for k := 1; k <= opts.Steps; k++ {
		if err := cancel.Poll(opts.Ctx, "galerkin.coupled", k); err != nil {
			return Result{}, err
		}
		t := float64(k) * opts.Step
		stepStart := time.Now()
		sys.RHS(t, rhsBlocks)
		pack(rhsBlocks, rhs)
		if cBM != nil {
			// The gather-form apply is used at every worker count
			// (including 1) so the summation order — and therefore the
			// trajectory — never depends on Workers.
			cBM.MulVecSym(work, x, workers)
			for i := range rhs {
				rhs[i] += work[i] / opts.Step
			}
		}
		if err := lad.Solve(k, x, rhs); err != nil {
			return Result{}, fmt.Errorf("galerkin: step %d: %w", k, err)
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
	res.Factorer = lad.Rung()
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	res.CondEst = lad.CondEstimate(nb)
	return res, nil
}

// unionScalarPattern returns the union sparsity pattern of every term's
// node matrix.
func unionScalarPattern(sys *System) *sparse.Matrix {
	var u *sparse.Matrix
	add := func(a *sparse.Matrix) {
		if u == nil {
			u = a
			return
		}
		u = sparse.Add(1, u, 1, a)
	}
	for _, t := range sys.GTerms {
		add(t.A)
	}
	for _, t := range sys.CTerms {
		add(t.A)
	}
	return u
}

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

// meanPrecondRung names the coupled path's CG solve in Result.Factorer,
// transitions and fault injection.
const meanPrecondRung = "cg+mean-precond"

// The coupled CG solves stop at this relative recurrence residual; the
// true scaled residual is verified separately, on the numguard cadence.
const (
	cgTol     = 1e-11
	cgMaxIter = 1000
)

// maxBlockFactorBytes caps the block factor's values for a cost
// handoff: a window whose nnz(L)·B²·8 bytes, nnz(L) the scalar union
// pattern's, exceed it stays on CG. The supernodal panels of that
// factor store 1.17–1.20× this count on the synthetic grids.
const maxBlockFactorBytes = 4 << 30

// solveCoupled runs the general OPERA path, the paper's §5.2 "iterative
// block solver with an appropriate pre-conditioner": preconditioned
// conjugate gradients on the augmented system (Eq. 19), G̃ for the DC
// solve and G̃ + C̃/h for every step. The operators apply term by term
// in Kronecker form (kronOp), never assembled. The preconditioner is
// the block-diagonal mean I_B ⊗ (G₀ + C₀/h)⁻¹ (I_B ⊗ G₀⁻¹ for DC): one
// scalar factorization, applied to the B chaos columns as batched
// solves. Every solve on the numguard cadence is checked against its
// true scaled residual.
//
// The block ladder (block-cholesky → lu → cg+ic0 on G̃ + C̃/h assembled
// node-major; block-cholesky is the supernodal kernel, under the node
// ordering lifted to the B unknowns of each node) takes the rest of
// the window in two cases. A CG fault —
// breakdown, a non-finite answer or a true residual above tolerance —
// escalates: it records a transition and re-solves the step there. A
// cost handoff is no fault: when, after the first step CG iterates on,
// handoffCounts say the remaining steps are cheaper on the block
// factor, the window moves there and the report stays healthy.
func solveCoupled(sys *System, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b := sys.N, sys.Basis.Size()
	nb := n * b
	spO := tr.Start("order", obs.String("ordering", opts.Ordering.String()), obs.Int("n", n))
	pattern := unionScalarPattern(sys)
	perm := order.Permute(opts.Ordering, pattern)
	spO.End()

	spF := tr.Start("factor")
	spAsm := tr.Start("galerkin.assemble", obs.Int("n", n), obs.Int("basis", b))
	workers := parallel.Workers(opts.Workers)
	gOp := newKronOp(n, b, workers).add(sys.GTerms, 1)
	cOp := newKronOp(n, b, workers).add(sys.CTerms, 1)
	stepOp := newKronOp(n, b, workers).add(sys.GTerms, 1).add(sys.CTerms, 1/opts.Step)
	gNorm, stepNorm := gOp.normInf(), stepOp.normInf()
	// The preconditioners factor the identity-coupled (ξ-free) part of
	// each operator: G₀ for DC, the mean companion G₀ + C₀/h per step.
	g0, meanComp := gOp.mean, stepOp.mean
	spAsm.End()

	res := Result{Factorer: meanPrecondRung, AugmentedN: nb}
	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	res.guard = rep
	// The preconditioner factors go through scalar ladders of their
	// own: a mean companion that defeats Cholesky falls back to LU
	// rather than aborting.
	st := &factorStats{}
	compLad := numguard.NewLadder("precond", opts.Guard, meanComp, meanComp.NormInf(),
		scalarRungs(meanComp, perm, workers, opts.Guard, opts.ForceLU, st), rep)
	compFac, err := compLad.Solver(0)
	if err != nil {
		return Result{}, fmt.Errorf("galerkin: mean companion factorization: %w", err)
	}
	g0Lad := numguard.NewLadder("precond-dc", opts.Guard, g0, g0.NormInf(),
		scalarRungs(g0, perm, workers, opts.Guard, opts.ForceLU, nil), rep)
	g0Fac, err := g0Lad.Solver(0)
	if err != nil {
		return Result{}, fmt.Errorf("galerkin: mean DC factorization: %w", err)
	}
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", compLad.Rung()), obs.Int("factor_nnz", res.FactorNNZ))
	spF.End()

	x := make([]float64, nb)
	rhs := make([]float64, nb)
	work := make([]float64, nb)        // C̃·x, then the verified residual
	src := alloc2(len(sys.Weights), n) // the excitation sources
	rhsBlocks := alloc2(b, n)
	outBlocks := alloc2(b, n)
	cols := alloc2(b, n) // the preconditioner's chaos columns
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
	spT.MarkAllocsApprox() // the Kronecker apply and the preconditioner run on worker goroutines
	defer spT.End()
	reg := tr.Registry()
	reg.Gauge("parallel.workers").Set(float64(workers))
	stepMS := reg.Histogram("galerkin.step_ms", obs.MSBuckets)
	stepsTotal := reg.Counter("galerkin.steps_total")
	cgIters := reg.Counter("galerkin.cg_iterations_total")

	// The preconditioner z = (I_B ⊗ M⁻¹)·r, M the mean factor fac: the B
	// chaos columns split into one contiguous range per worker, each
	// solved by one batched SolveMany when fac offers it (a
	// SuperFactor, bitwise equal per column to SolveTo), column by
	// column otherwise (a preconditioner ladder escalated to LU). A
	// column's arithmetic does not depend on its range, so z is
	// bit-identical for every worker count.
	var fac numguard.Solver
	pre := iterative.PrecondFunc(func(z, r []float64) {
		if err := parallel.Split(workers, b, func(_, lo, hi int) error {
			for c, col := range cols[lo:hi] {
				for i := range col {
					col[i] = r[i*b+lo+c]
				}
			}
			if ms, ok := fac.(numguard.ManySolver); ok {
				ms.SolveMany(cols[lo:hi], cols[lo:hi])
			} else {
				for _, col := range cols[lo:hi] {
					fac.SolveTo(col, col)
				}
			}
			for c, col := range cols[lo:hi] {
				for i, v := range col {
					z[i*b+lo+c] = v
				}
			}
			return nil
		}); err != nil {
			panic(err) // a panic in a solve: re-raise it on the caller
		}
	})
	cfg := opts.Guard.WithDefaults()
	var cg iterative.CGWork
	// cgSolve solves op·x = rhs by CG warm-started from x, preconditioned
	// with the mean factor f, verifying the answer on the cadence. It
	// returns the iteration count and, on a fault, its reason.
	cgSolve := func(step int, op *kronOp, anorm float64, f numguard.Solver) (int, string) {
		fac = f
		r, err := cg.CG(op, x, rhs, iterative.CGOptions{Tol: cgTol, MaxIter: cgMaxIter, M: pre})
		inject.CorruptSolve(meanPrecondRung, step, x)
		cgIters.Add(int64(r.Iterations))
		switch {
		case err != nil:
			return r.Iterations, err.Error()
		case !numguard.Finite(x):
			rep.NonFinite()
			return r.Iterations, "non-finite solution"
		case cfg.ShouldVerify(step):
			res := numguard.ScaledResidual(op, anorm, work, x, rhs)
			if res > cfg.ResidualTol {
				return r.Iterations, fmt.Sprintf("true residual %.3g above tolerance %.3g", res, cfg.ResidualTol)
			}
			rep.Accept(res)
		}
		return r.Iterations, ""
	}

	// block is the ladder the rest of the window runs on after a
	// handoff or a CG fault; nil while CG serves.
	var block *numguard.Ladder
	blockStats := &factorStats{}
	faulted, decided := false, false
	toBlock := func() {
		comp := assembleBlock(n, b, sys.GTerms, sys.CTerms, 1/opts.Step)
		block = numguard.NewLadder("step", opts.Guard, comp, comp.NormInf(),
			blockRungs(comp, perm, b, workers, opts.Guard, opts.ForceLU, blockStats), rep)
	}
	// escalate records a CG fault and re-solves the step on the block
	// ladder; the DC operator G̃ gets a ladder of its own.
	escalate := func(step int, reason string) error {
		faulted = true
		if block == nil {
			toBlock()
		}
		rep.AddTransition(numguard.Transition{
			Stage: "step", Step: step, From: meanPrecondRung, To: block.Rung(), Reason: reason,
		})
		if step > 0 {
			rep.AddStepRetry()
			return block.Solve(step, x, rhs)
		}
		g := assembleBlock(n, b, sys.GTerms, nil, 0)
		dc := numguard.NewLadder("dc", opts.Guard, g, g.NormInf(),
			blockRungs(g, perm, b, workers, opts.Guard, opts.ForceLU, nil), rep)
		return dc.Solve(0, x, rhs)
	}

	sys.rhs(0, src, rhsBlocks)
	pack(rhsBlocks, rhs)
	if _, fault := cgSolve(0, gOp, gNorm, g0Fac); fault != "" {
		if err := escalate(0, fault); err != nil {
			return Result{}, fmt.Errorf("galerkin: coupled DC solve: %w", err)
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
		sys.rhs(t, src, rhsBlocks)
		pack(rhsBlocks, rhs)
		cOp.MulVec(work, x)
		for i := range rhs {
			rhs[i] += work[i] / opts.Step
		}
		if block != nil {
			if err := block.Solve(k, x, rhs); err != nil {
				return Result{}, fmt.Errorf("galerkin: coupled step %d: %w", k, err)
			}
		} else if iters, fault := cgSolve(k, stepOp, stepNorm, compFac); fault != "" {
			if err := escalate(k, fault); err != nil {
				return Result{}, fmt.Errorf("galerkin: coupled step %d: %w", k, err)
			}
		} else if !decided && iters > 0 {
			// The first step CG had to iterate on (step 1 unless the
			// excitation starts later) prices the rest of the window.
			decided = true
			if k < opts.Steps {
				sym := factor.CholAnalyze(pattern, perm)
				if (handoffCounts{
					n: n, b: b, stepsLeft: opts.Steps - k, cgIters: iters,
					precondLNNZ: st.nnz, blockLNNZ: sym.LNNZ(),
					kronMACs: stepOp.macs(), blockFlops: sym.FlopEstimate(),
				}).blockCheaper() {
					toBlock()
					spT.SetAttrs(obs.Int("handoff_step", k+1))
				}
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
	if block == nil {
		// The mean companion is the operator CG preconditioned with; its
		// κ₁ is the meaningful per-job conditioning signal.
		res.CondEst = compLad.CondEstimate(n)
		return res, nil
	}
	res.Factorer = block.Rung()
	if faulted {
		res.Factorer = meanPrecondRung + "→" + block.Rung()
	}
	res.FactorNNZ, res.FactorFlops, res.FillRatio = blockStats.nnz, blockStats.flops, blockStats.fill
	res.CondEst = block.CondEstimate(nb)
	return res, nil
}

// handoffCounts are the deterministic counts the cost handoff compares
// after the first step CG iterates on: the grid and basis sizes, the
// steps left, that step's CG iterations, the preconditioner factor's
// nnz(L₀), the MACs of one Kronecker apply, and the symbolic
// Σ_j |L(:,j)|² and nnz(L) of the scalar union pattern under the
// solve's permutation.
type handoffCounts struct {
	n, b, stepsLeft, cgIters int
	precondLNNZ, blockLNNZ   int
	kronMACs, blockFlops     int64
}

// blockCheaper reports whether the remaining steps run cheaper on the
// block factor than on CG. Counts alone decide, so the decision is the
// same at every worker count. The block side pays one factorization,
// F·B³, and per step a block forward and back solve, 2·nnz(L)·B². CG
// pays per step the measured iteration count times one iteration: the
// batched preconditioner's 2·nnz(L₀)·B, the Kronecker apply's MACs
// and five length-n·B vector updates. The block factor must also fit
// maxBlockFactorBytes. F and nnz(L) come from the scalar pattern,
// which prices the supernodal factor of the expanded pattern 3–12%
// high; analyzing the expanded pattern instead would cost every CG
// window about 70 times the scalar analysis on a 2,570-node order-2
// grid.
func (c handoffCounts) blockCheaper() bool {
	b := float64(c.b)
	if float64(c.blockLNNZ)*b*b*8 > maxBlockFactorBytes {
		return false
	}
	r := float64(c.stepsLeft)
	block := float64(c.blockFlops)*b*b*b + r*2*float64(c.blockLNNZ)*b*b
	cg := r * float64(c.cgIters) * (2*float64(c.precondLNNZ)*b + float64(c.kronMACs) + 5*float64(c.n)*b)
	return block < cg
}

// assembleBlock builds G̃ + s·C̃ (nil cTerms: G̃ alone), the matrix of
// the block ladder, as one CSC matrix with node-major indexing i·B+m:
// each term enters as A ⊗ T, the node matrix the outer factor. Only a
// handoff or a CG fault assembles one.
func assembleBlock(n, b int, gTerms, cTerms []Term, s float64) *sparse.Matrix {
	var terms []sparse.BlockTerm
	for _, t := range gTerms {
		terms = append(terms, sparse.BlockTerm{T: t.A, A: t.Coupling})
	}
	for _, t := range cTerms {
		terms = append(terms, sparse.BlockTerm{T: t.A, A: t.Coupling.Clone().Scale(s)})
	}
	return sparse.AssembleBlocks(n, b, terms)
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

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
// transitions and fault injection. "Mean" names the factored mean node
// matrices G₀ and C₀ its preconditioner is built from, separable or
// not.
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
// in Kronecker form (kronOp), never assembled. The preconditioner
// (precond.go) is the exact inverse when the variation is separable,
// every non-identity term a multiple of the mean node matrix: B
// shifted companions G₀ + λ_m·C₀/h in the chaos eigenbasis, so CG
// takes one iteration per step. Otherwise it is the block-diagonal
// mean I_B ⊗ (G₀ + C₀/h)⁻¹ (I_B ⊗ G₀⁻¹ for DC). Either applies to the B
// chaos columns as batched solves. Every solve on the numguard cadence
// is checked against its true scaled residual.
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
	spAsm.End()

	res := Result{Factorer: meanPrecondRung, AugmentedN: nb}
	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	res.guard = rep
	// The preconditioners factor the identity-coupled (ξ-free) parts of
	// the operators, G₀ and C₀; the mean companion G₀ + C₀/h holds both
	// patterns.
	st := &factorStats{}
	pc, err := newCoupledPrecond(sys, gOp.mean, cOp.mean, stepOp.mean, perm, opts, workers, rep, st)
	if err != nil {
		return Result{}, err
	}
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", pc.rung), obs.Int("factor_nnz", res.FactorNNZ),
		obs.String("precond", pc.kind), obs.Int("precond_factors", len(pc.step.facs)))
	spF.End()

	x := make([]float64, nb)
	rhs := make([]float64, nb)
	work := make([]float64, nb)        // C̃·x, then the verified residual
	src := alloc2(len(sys.Weights), n) // the excitation sources
	rhsBlocks := alloc2(b, n)
	outBlocks := alloc2(b, n)
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

	cfg := opts.Guard.WithDefaults()
	var cg iterative.CGWork
	// cgSolve solves op·x = rhs by CG warm-started from x, preconditioned
	// with pre, verifying the answer on the cadence. It returns the
	// iteration count and, on a fault, its reason.
	cgSolve := func(step int, op *kronOp, anorm float64, pre *kronPrecond) (int, string) {
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
	if _, fault := cgSolve(0, gOp, gNorm, pc.dc); fault != "" {
		if err := escalate(0, fault); err != nil {
			return Result{}, fmt.Errorf("galerkin: coupled DC solve: %w", err)
		}
	}
	pc.dc = nil // G₀'s factor serves the DC solve alone
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
		} else if iters, fault := cgSolve(k, stepOp, stepNorm, pc.step); fault != "" {
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
					kronMACs: stepOp.macs(), mixMACs: pc.step.mixMACs(), blockFlops: sym.FlopEstimate(),
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
		// The companion CG preconditioned with is the meaningful per-job
		// conditioning signal.
		res.CondEst = pc.cond()
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
// steps left, that step's CG iterations, the preconditioner factors'
// nnz(L₀), the MACs of one Kronecker apply and of one preconditioner's
// chaos mixing, and the symbolic Σ_j |L(:,j)|² and nnz(L) of the scalar
// union pattern under the solve's permutation.
type handoffCounts struct {
	n, b, stepsLeft, cgIters      int
	precondLNNZ, blockLNNZ        int
	kronMACs, mixMACs, blockFlops int64
}

// blockCheaper reports whether the remaining steps run cheaper on the
// block factor than on CG. Counts alone decide, so the decision is the
// same at every worker count. The block side pays one factorization,
// F·B³, and per step a block forward and back solve, 2·nnz(L)·B². CG
// pays per step the measured iteration count times one iteration: the
// batched preconditioner's 2·nnz(L₀)·B and its mixing (2·n·B² on a
// separable system, 0 otherwise), the Kronecker apply's MACs and five
// length-n·B vector updates. A separable system's CG takes one
// iteration per step, and the block side's per-step solve alone costs
// about B preconditioner applies, so such a window stays on CG. The
// block factor must also fit maxBlockFactorBytes. F and nnz(L) come from the scalar pattern,
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
	cg := r * float64(c.cgIters) * (2*float64(c.precondLNNZ)*b + float64(c.mixMACs) + float64(c.kronMACs) + 5*float64(c.n)*b)
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

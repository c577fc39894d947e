package galerkin

import (
	"fmt"

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
// matrices G₀ and C₀ its preconditioner is built from.
const meanPrecondRung = "cg+mean-precond"

// The coupled CG solves stop at this relative recurrence residual; the
// true scaled residual is verified separately, on the numguard cadence.
const (
	cgTol     = 1e-11
	cgMaxIter = 1000
)

// maxBlockFactorBytes caps factor values: a window whose block factor
// would hold more, nnz(L)·B²·8 bytes from the scalar union pattern,
// never hands off, and a separable system whose eigenbasis factors'
// panels would goes to CG. The block factor's panels store 1.17–1.20×
// its count on the synthetic grids.
const maxBlockFactorBytes = 4 << 30

// solveCoupled runs the general OPERA path, the paper's §5.2 "iterative
// block solver with an appropriate pre-conditioner": preconditioned
// conjugate gradients on the augmented system (Eq. 19), G̃ for the DC
// solve and G̃ + C̃/h for every step. The operators apply term by term
// in Kronecker form (kronOp), never assembled; the preconditioner is
// the block-diagonal mean (precond.go). Every solve on the numguard
// cadence is checked against its true scaled residual.
//
// The block ladder takes the rest of the window in two cases. A CG
// fault — breakdown, a non-finite answer or a true residual above
// tolerance — escalates: it records a transition and re-solves the step
// there. A cost handoff is no fault: when, after the first step CG
// iterates on, handoffCounts say the remaining steps are cheaper on the
// block factor, the window moves there and the report stays healthy.
func solveCoupled(sys *System, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b := sys.N, sys.Basis.Size()
	spO := tr.Start("order", obs.String("ordering", opts.Ordering.String()), obs.Int("n", n))
	pattern := unionScalarPattern(sys)
	perm := order.Permute(opts.Ordering, pattern)
	spO.End()

	spF := tr.Start("factor")
	spAsm := tr.Start("galerkin.assemble", obs.Int("n", n), obs.Int("basis", b))
	workers := parallel.Workers(opts.Workers)
	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	aug := newAugmented(sys, opts, perm, workers, rep)
	spAsm.End()

	res := Result{Factorer: meanPrecondRung, AugmentedN: n * b, guard: rep}
	st := &factorStats{}
	cols := alloc2(b, n)
	pre, lad, err := newKronPrecond("precond", aug.stepOp.mean, perm, cols, opts, workers, rep, st)
	if err != nil {
		return Result{}, err
	}
	dcPre, _, err := newKronPrecond("precond-dc", aug.gOp.mean, perm, cols, opts, workers, rep, nil)
	if err != nil {
		return Result{}, err
	}
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", lad.Rung()), obs.Int("factor_nnz", res.FactorNNZ), obs.Int("step_factors", 1))
	spF.End()

	spT := tr.Start("transient", obs.Int("steps", opts.Steps))
	spT.MarkAllocsApprox() // the Kronecker apply and the preconditioner run on worker goroutines
	defer spT.End()
	tr.Registry().Gauge("parallel.workers").Set(float64(workers))
	cgIters := tr.Registry().Counter("galerkin.cg_iterations_total")
	cfg := opts.Guard.WithDefaults()
	var cg iterative.CGWork
	// cgSolve solves op·x = rhs by CG warm-started from x, preconditioned
	// with pre, verifying the answer on the cadence. It returns the
	// iteration count and, on a fault, its reason.
	cgSolve := func(step int, op *kronOp, anorm float64, pre *kronPrecond) (int, string) {
		x := aug.x
		r, err := cg.CG(op, x, aug.rhs, iterative.CGOptions{Tol: cgTol, MaxIter: cgMaxIter, M: pre})
		inject.CorruptSolve(meanPrecondRung, step, x)
		cgIters.Add(int64(r.Iterations))
		switch {
		case err != nil:
			return r.Iterations, err.Error()
		case !numguard.Finite(x):
			rep.NonFinite()
			return r.Iterations, "non-finite solution"
		case cfg.ShouldVerify(step):
			res := numguard.ScaledResidual(op, anorm, aug.work, x, aug.rhs)
			if res > cfg.ResidualTol {
				return r.Iterations, fmt.Sprintf("true residual %.3g above tolerance %.3g", res, cfg.ResidualTol)
			}
			rep.Accept(res)
		}
		return r.Iterations, ""
	}
	decided := false
	// solve solves step k by CG, escalating a fault to the block ladder;
	// the first step CG has to iterate on (step 1 unless the excitation
	// starts later) prices the rest of the window.
	solve := func(k int, t float64) error {
		switch {
		case k == 0:
			aug.load(0, false)
			if _, fault := cgSolve(0, aug.gOp, aug.gNorm, dcPre); fault != "" {
				if err := aug.escalate(meanPrecondRung, 0, fault); err != nil {
					return fmt.Errorf("galerkin: coupled DC solve: %w", err)
				}
			}
			dcPre = nil // G₀'s factor serves the DC solve alone
			return nil
		case aug.block != nil:
			return aug.step(k, t)
		}
		aug.load(t, true)
		iters, fault := cgSolve(k, aug.stepOp, aug.stepNorm, pre)
		if fault != "" {
			if err := aug.escalate(meanPrecondRung, k, fault); err != nil {
				return fmt.Errorf("galerkin: coupled step %d: %w", k, err)
			}
			return nil
		}
		if decided || iters == 0 || k == opts.Steps {
			return nil
		}
		decided = true
		sym := factor.CholAnalyze(pattern, perm)
		if (handoffCounts{
			n: n, b: b, stepsLeft: opts.Steps - k, cgIters: iters,
			precondLNNZ: st.nnz, blockLNNZ: sym.LNNZ(),
			kronMACs: aug.stepOp.macs(), blockFlops: sym.FlopEstimate(),
		}).blockCheaper() {
			aug.move()
			spT.SetAttrs(obs.Int("handoff_step", k+1))
		}
		return nil
	}
	if err := stepWindow(opts, "galerkin.coupled", &res, visit, solve, aug.blocks); err != nil {
		return Result{}, err
	}
	if aug.block != nil {
		aug.describe(&res)
		return res, nil
	}
	// The companion CG preconditioned with is the meaningful per-job
	// conditioning signal.
	res.CondEst = lad.CondEstimate(n)
	return res, nil
}

// augmented is the node-major view of a window's augmented system
// (Eq. 19), unknown i·B+m chaos block m at node i: its Kronecker-form
// operators with the exact ∞-norms of the two that are solved, the
// state x, right-hand side and residual vectors, and the block ladder
// (block-cholesky → lu → cg+ic0 on G̃ + C̃/h assembled node-major, under
// the node ordering perm lifted to the B unknowns of each node). A CG
// fault, a failed Kronecker-form check on the eigenbasis path or a cost
// handoff moves the rest of the window onto that ladder.
type augmented struct {
	sys              *System
	opts             Options
	n, b, workers    int
	perm             []int
	rep              *numguard.Report
	gOp, cOp, stepOp *kronOp
	gNorm, stepNorm  float64
	x, rhs, work     []float64
	src, rhsBlocks   [][]float64 // the excitation's sources and chaos blocks
	out              [][]float64 // x as chaos blocks
	block            *numguard.Ladder
	blockStats       factorStats
	from             string // the rung whose fault moved the window; "" after a handoff
}

func newAugmented(sys *System, opts Options, perm []int, workers int, rep *numguard.Report) *augmented {
	n, b := sys.N, sys.Basis.Size()
	a := &augmented{
		sys: sys, opts: opts, n: n, b: b, workers: workers, perm: perm, rep: rep,
		gOp:       newKronOp(n, b, workers).add(sys.GTerms, 1),
		cOp:       newKronOp(n, b, workers).add(sys.CTerms, 1),
		stepOp:    newKronOp(n, b, workers).add(sys.GTerms, 1).add(sys.CTerms, 1/opts.Step),
		x:         make([]float64, n*b),
		rhs:       make([]float64, n*b),
		work:      make([]float64, n*b),
		src:       alloc2(len(sys.Weights), n),
		rhsBlocks: alloc2(b, n),
		out:       alloc2(b, n),
	}
	a.gNorm, a.stepNorm = a.gOp.normInf(), a.stepOp.normInf()
	return a
}

// load sets rhs to the excitation at time t and, on a transient step,
// adds C̃·x/h, x the previous step's state.
func (a *augmented) load(t float64, transient bool) {
	a.sys.rhs(t, a.src, a.rhsBlocks)
	a.pack(a.rhsBlocks, a.rhs)
	if transient {
		a.cOp.MulVec(a.work, a.x)
		for i := range a.rhs {
			a.rhs[i] += a.work[i] / a.opts.Step
		}
	}
}

// pack writes chaos blocks node-major into dst.
func (a *augmented) pack(blocks [][]float64, dst []float64) {
	for m, src := range blocks {
		for i, v := range src {
			dst[i*a.b+m] = v
		}
	}
}

// unpack writes the node-major src into chaos blocks.
func (a *augmented) unpack(src []float64, blocks [][]float64) {
	for m, dst := range blocks {
		for i := range dst {
			dst[i] = src[i*a.b+m]
		}
	}
}

// blocks returns x as chaos blocks.
func (a *augmented) blocks() [][]float64 {
	a.unpack(a.x, a.out)
	return a.out
}

// move assembles the block companion and moves the window onto its
// ladder.
func (a *augmented) move() {
	comp := assembleBlock(a.n, a.b, a.sys.GTerms, a.sys.CTerms, 1/a.opts.Step)
	a.block = numguard.NewLadder("step", a.opts.Guard, comp, comp.NormInf(),
		blockRungs(comp, a.perm, a.b, a.workers, a.opts.Guard, a.opts.ForceLU, &a.blockStats), a.rep)
}

// escalate records a fault of rung from at step, moves the window onto
// the block ladder and re-solves the step there, x ← A⁻¹·rhs; the DC
// operator G̃ gets a ladder of its own.
func (a *augmented) escalate(from string, step int, reason string) error {
	a.from = from
	if a.block == nil {
		a.move()
	}
	a.rep.AddTransition(numguard.Transition{
		Stage: "step", Step: step, From: from, To: a.block.Rung(), Reason: reason,
	})
	if step > 0 {
		a.rep.AddStepRetry()
		return a.block.Solve(step, a.x, a.rhs)
	}
	g := assembleBlock(a.n, a.b, a.sys.GTerms, nil, 0)
	dc := numguard.NewLadder("dc", a.opts.Guard, g, g.NormInf(),
		blockRungs(g, a.perm, a.b, a.workers, a.opts.Guard, a.opts.ForceLU, nil), a.rep)
	return dc.Solve(0, a.x, a.rhs)
}

// step solves step k, at time t, on the block ladder.
func (a *augmented) step(k int, t float64) error {
	a.load(t, true)
	if err := a.block.Solve(k, a.x, a.rhs); err != nil {
		return fmt.Errorf("galerkin: coupled step %d: %w", k, err)
	}
	return nil
}

// describe reports the block ladder as what served the window.
func (a *augmented) describe(res *Result) {
	res.Factorer = a.block.Rung()
	if a.from != "" {
		res.Factorer = a.from + "→" + res.Factorer
	}
	res.FactorNNZ, res.FactorFlops, res.FillRatio = a.blockStats.nnz, a.blockStats.flops, a.blockStats.fill
	res.CondEst = a.block.CondEstimate(a.n * a.b)
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
// batched preconditioner's 2·nnz(L₀)·B, the Kronecker apply's MACs and
// five length-n·B vector updates. The block factor must also fit
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
// each term enters as A ⊗ T, the node matrix the outer factor.
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

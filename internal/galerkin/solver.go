package galerkin

import (
	"context"
	"fmt"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// Options configures the stochastic transient solve.
type Options struct {
	Step  float64 // fixed time step
	Steps int
	// Ordering selects the fill-reducing permutation of every
	// factorization the solve runs; the zero value is AMD.
	Ordering order.Method
	// Kernel selects the scalar Cholesky kernel for the direct rungs
	// (supernodal blocked panels by default; KernelScalar forces the
	// up-looking reference kernel — the ablation switch).
	Kernel factor.Kernel
	// ForceCoupled disables the automatic decoupled fast path (used by
	// the ablation benchmarks to measure its benefit).
	ForceCoupled bool
	// ForceLU skips the Cholesky attempt (the augmented Galerkin matrix
	// is SPD for realistic variation magnitudes; LU covers the rest).
	ForceLU bool
	// Iterative selects the §5.2 mean-preconditioned conjugate gradient
	// path instead of the direct block factorization.
	Iterative bool
	// Workers caps the worker pool of the decoupled fast path's
	// per-basis fan-out and the coupled paths' row-parallel block apply;
	// 0 or negative means GOMAXPROCS. Results are bit-identical for
	// every value.
	Workers int
	// MemoryBudget caps the block factor's value storage in bytes; when
	// the symbolic analysis predicts a larger factor, the solver
	// switches to the iterative path automatically (its memory is the
	// scalar factor's). 0 means 4 GiB; negative disables the check.
	MemoryBudget int64
	// Guard tunes the numerical-robustness layer (residual tolerance,
	// refinement caps, verification cadence). The zero value uses the
	// numguard defaults; the guard cannot be disabled.
	Guard numguard.Config
	// Obs, when non-nil, receives phase spans (order/factor/transient)
	// and solver metrics (galerkin.step_ms, galerkin.steps_total,
	// galerkin.cg_iterations_total, numguard.*). Nil disables
	// instrumentation at zero cost.
	Obs *obs.Tracer
	// Progress, when non-nil, is marked once per completed time step on
	// every solve path; a stall watchdog can poll it to distinguish a
	// slow solve from a hung one. Nil disables the marks.
	Progress *obs.Progress
	// Ctx, when non-nil, is polled at every time step (all three solve
	// paths) and before every per-basis solve on the decoupled path; a
	// canceled or expired context stops the solve within one step with
	// a structured error wrapping cancel.ErrCanceled, leaving factors
	// and the numguard ladder reusable. Nil disables the check.
	Ctx context.Context
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Step <= 0 {
		return fmt.Errorf("galerkin: step must be positive, got %g", o.Step)
	}
	if o.Steps < 1 {
		return fmt.Errorf("galerkin: need at least one step, got %d", o.Steps)
	}
	return nil
}

// Result carries solver telemetry. Quantitative counters that used to
// live here (CG iterations, ...) are on the obs registry now
// (galerkin.cg_iterations_total et al.); Result keeps the structural
// facts of the solve plus the guard report accessor.
type Result struct {
	Decoupled  bool
	Factorer   string // "block-cholesky", "cg+mean-precond" or "lu"
	AugmentedN int    // size of the augmented system
	FactorNNZ  int    // scalar-equivalent nnz of the factor (0 on the pure-CG rung)
	StepsRun   int

	// FactorFlops is the symbolic flop estimate of one numeric
	// factorization on the rung that served the solve; FillRatio is its
	// nnz(L)/nnz(upper(A)). Both are deterministic functions of pattern
	// and permutation — machine-independent cost metrics.
	FactorFlops int64
	FillRatio   float64
	// CondEst is the Hager/Higham 1-norm condition estimate of the
	// solved operator (0 when no direct rung produced a solver).
	CondEst float64

	// guard carries the numerical-robustness telemetry: residuals
	// verified, refinement sweeps, rung transitions, non-finite events.
	guard *numguard.Report
}

// Guard returns the numerical-robustness report of the solve (never
// nil after a successful Solve).
func (r Result) Guard() *numguard.Report { return r.guard }

// Solve runs the stochastic Galerkin transient. visit is called after
// the DC initialization (step 0) and after every time step with the
// chaos coefficient blocks: coeffs[m][i] is the coefficient of basis
// function m at node i. The slices are views into solver state — copy
// anything retained.
func Solve(sys *System, opts Options, visit func(step int, t float64, coeffs [][]float64)) (Result, error) {
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if sys.RHSOnly() && !opts.ForceCoupled {
		return solveDecoupled(sys, opts, visit)
	}
	if opts.Iterative {
		return solveCoupledIterative(sys, opts, visit)
	}
	return solveCoupled(sys, opts, visit)
}

// solveDecoupled exploits a deterministic operator (§5.1, Eq. 27): one
// n×n factorization, N+1 independent recursions. Every solve runs
// through the numguard escalation ladder (cholesky → lu → cg+ic0) with
// residual verification.
//
// The N+1 recursions are independent within each time step, so they fan
// out across a worker pool: basis m reads only blocks[m] and writes
// only blocks[m], each worker owns private cx/rhs scratch, and the
// shared ladder's Solve is concurrency-safe. Coefficients are therefore
// bit-identical for every worker count, including 1.
func solveDecoupled(sys *System, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b := sys.N, sys.Basis.Size()
	spA := tr.Start("galerkin.assemble", obs.Int("n", n), obs.Int("basis", b))
	g0 := sumTerms(sys.GTerms, n)
	c0 := sumTerms(sys.CTerms, n)
	companion := sparse.Add(1, g0, 1/opts.Step, c0)
	spA.End()
	res := Result{Decoupled: true, AugmentedN: n}
	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	res.guard = rep
	// The companion's pattern contains G̃0's, so one permutation serves
	// both ladders.
	spO := tr.Start("order", obs.String("ordering", opts.Ordering.String()))
	perm := order.Permute(opts.Ordering, companion)
	spO.End()
	spF := tr.Start("factor")
	st := &factorStats{}
	lad := numguard.NewLadder("step", opts.Guard, companion, companion.NormInf(),
		scalarRungs(companion, perm, opts.Kernel, opts.Workers, opts.Guard, opts.ForceLU, st), rep)
	if _, err := lad.Solver(0); err != nil {
		return Result{}, fmt.Errorf("galerkin: decoupled companion factorization: %w", err)
	}
	dcLad := numguard.NewLadder("dc", opts.Guard, g0, g0.NormInf(),
		scalarRungs(g0, perm, opts.Kernel, opts.Workers, opts.Guard, opts.ForceLU, nil), rep)
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", lad.Rung()), obs.Int("factor_nnz", res.FactorNNZ))
	spF.End()
	spT := tr.Start("transient", obs.Int("steps", opts.Steps))
	spT.MarkAllocsApprox() // per-basis fan-out allocates on worker goroutines
	defer spT.End()
	workers := parallel.Workers(opts.Workers)
	if workers > b {
		workers = b
	}
	reg := tr.Registry()
	reg.Gauge("parallel.workers").Set(float64(workers))
	stepMS := reg.Histogram("galerkin.step_ms", obs.MSBuckets)
	stepsTotal := reg.Counter("galerkin.steps_total")
	workerMS := make([]*obs.Histogram, workers)
	for w := range workerMS {
		workerMS[w] = reg.WorkerHistogram("galerkin.solve_ms", w, obs.MSBuckets)
	}
	blocks := make([][]float64, b)
	rhsBlocks := make([][]float64, b)
	for m := 0; m < b; m++ {
		blocks[m] = make([]float64, n)
		rhsBlocks[m] = make([]float64, n)
	}
	// Per-worker step scratch: basis m's rhs assembly must not share
	// vectors across concurrent solves.
	type stepScratch struct{ cx, rhs []float64 }
	scratch := make([]stepScratch, workers)
	for w := range scratch {
		scratch[w] = stepScratch{cx: make([]float64, n), rhs: make([]float64, n)}
	}
	sys.RHS(0, rhsBlocks)
	if err := parallel.ForEach(workers, b, func(_, m int) error {
		if err := cancel.Poll(opts.Ctx, "galerkin.decoupled", m); err != nil {
			return err
		}
		if err := dcLad.Solve(0, blocks[m], rhsBlocks[m]); err != nil {
			return fmt.Errorf("galerkin: decoupled DC solve (basis %d): %w", m, err)
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	if visit != nil {
		visit(0, 0, blocks)
	}
	for k := 1; k <= opts.Steps; k++ {
		if err := cancel.Poll(opts.Ctx, "galerkin.decoupled", k); err != nil {
			return Result{}, err
		}
		t := float64(k) * opts.Step
		stepStart := time.Now()
		sys.RHS(t, rhsBlocks)
		if err := parallel.ForEach(workers, b, func(worker, m int) error {
			if err := cancel.Poll(opts.Ctx, "galerkin.decoupled", k); err != nil {
				return err
			}
			sc := &scratch[worker]
			var solveStart time.Time
			if workerMS[worker] != nil {
				solveStart = time.Now()
			}
			c0.MulVec(sc.cx, blocks[m])
			for i := 0; i < n; i++ {
				sc.rhs[i] = rhsBlocks[m][i] + sc.cx[i]/opts.Step
			}
			if err := lad.Solve(k, blocks[m], sc.rhs); err != nil {
				return fmt.Errorf("galerkin: decoupled step %d (basis %d): %w", k, m, err)
			}
			if workerMS[worker] != nil {
				workerMS[worker].ObserveSince(solveStart)
			}
			return nil
		}); err != nil {
			return Result{}, err
		}
		stepMS.ObserveSince(stepStart)
		stepsTotal.Inc()
		opts.Progress.Mark()
		if visit != nil {
			visit(k, t, blocks)
		}
		res.StepsRun = k
	}
	res.Factorer = lad.Rung()
	// Escalations can have moved the solve to a costlier factor.
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	res.CondEst = lad.CondEstimate(n)
	return res, nil
}

// sumTerms adds the node matrices of a term list (couplings are
// identities on this path). The result is always freshly allocated:
// a single-term list must NOT return the term's own matrix, or the
// caller would mutate solver input through the alias.
func sumTerms(ts []Term, n int) *sparse.Matrix {
	if len(ts) == 0 {
		return sparse.NewMatrix(n, n)
	}
	acc := ts[0].A.Clone()
	for _, t := range ts[1:] {
		acc = sparse.Add(1, acc, 1, t.A)
	}
	return acc
}

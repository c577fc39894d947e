package galerkin

import (
	"context"
	"fmt"
	"time"

	"opera/internal/cancel"
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
	// ForceCoupled disables the automatic decoupled fast path (used by
	// the ablation benchmarks to measure its benefit).
	ForceCoupled bool
	// ForceLU skips every Cholesky attempt: the scalar ladders (the
	// decoupled path, the coupled preconditioners) and the coupled
	// block ladder all start at LU. The augmented Galerkin matrix is
	// SPD for realistic variation magnitudes; LU covers the rest.
	ForceLU bool
	// Workers caps the worker pool of the decoupled fast path's
	// column chunks and of the coupled path's Kronecker apply and
	// preconditioner column ranges (one batched solve per worker); 0
	// or negative means GOMAXPROCS. Results are bit-identical for
	// every value.
	Workers int
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
	// paths) and before every chunk solve on the decoupled path; a
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
	Decoupled bool
	// Factorer names what served the solve. Coupled: "cg+mean-precond"
	// (CG on the augmented system), the block ladder's rung
	// ("block-cholesky", the supernodal kernel on the block companion;
	// "lu" under ForceLU) after a cost handoff, or
	// "cg+mean-precond→<rung>" after a CG fault escalated to it.
	// Decoupled: the scalar ladder's rung ("supernodal", "lu" or
	// "cg+ic0").
	Factorer   string
	AugmentedN int // size of the augmented system
	// FactorNNZ is nnz(L) of the factor the steps ran on: one
	// preconditioner factor's while CG serves (the separable
	// preconditioner's factors all share one pattern), the block
	// companion's after a handoff or escalation.
	FactorNNZ int
	StepsRun  int

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
	return solveCoupled(sys, opts, visit)
}

// solveDecoupled exploits a deterministic operator (§5.1, Eq. 27): one
// n×n factorization, one independent recursion per excitation source.
// Every solve runs through the numguard escalation ladder (supernodal →
// lu → cg+ic0) with residual verification.
//
// Every chaos block sees the same operator, and block m's excitation is
// w·u_j(t) for the one source j that weights it, so by linearity block
// m is w·y_j, y_j the state source j alone drives. A step therefore
// solves each live source once, however many blocks it weights, and
// writes each of those blocks as one scalar times the source's state.
// The scaled residual ‖Ax−b‖/(‖A‖‖x‖) is invariant under scaling, so
// the residual verified for y_j holds for every block it writes. A
// source turns live once it weights some block and its excitation has
// a nonzero entry (its state is nonzero only after that). Until then
// its state would solve to exactly +0, so it is left unsolved, and a
// block no live source weights stays +0.
//
// The live sources split into one contiguous chunk per worker; each
// chunk forms its right-hand sides u_j + c0·y_j/h in place, makes one
// batched ladder SolveMany — a single sweep over the factor — and
// writes its sources' blocks. Source j reads and writes only its own
// state, right-hand side and blocks, and a batched solve's per-column
// arithmetic is independent of the batch, so coefficients are
// bit-identical for every worker count, including 1.
func solveDecoupled(sys *System, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b, nsrc := sys.N, sys.Basis.Size(), len(sys.Weights)
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
		scalarRungs(companion, perm, opts.Workers, opts.Guard, opts.ForceLU, st), rep)
	if _, err := lad.Solver(0); err != nil {
		return Result{}, fmt.Errorf("galerkin: decoupled companion factorization: %w", err)
	}
	dcLad := numguard.NewLadder("dc", opts.Guard, g0, g0.NormInf(),
		scalarRungs(g0, perm, opts.Workers, opts.Guard, opts.ForceLU, nil), rep)
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	spF.SetAttrs(obs.String("rung", lad.Rung()), obs.Int("factor_nnz", res.FactorNNZ))
	spF.End()
	spT := tr.Start("transient", obs.Int("steps", opts.Steps))
	spT.MarkAllocsApprox() // the chunk fan-out allocates on worker goroutines
	defer spT.End()
	workers := min(parallel.Workers(opts.Workers), nsrc)
	reg := tr.Registry()
	reg.Gauge("parallel.workers").Set(float64(workers))
	stepMS := reg.Histogram("galerkin.step_ms", obs.MSBuckets)
	stepsTotal := reg.Counter("galerkin.steps_total")
	// galerkin.solve_ms.w<k> observes each chunk solve worker k runs:
	// forming the chunk's right-hand sides, its one SolveMany and
	// writing its sources' blocks.
	workerMS := make([]*obs.Histogram, workers)
	for w := range workerMS {
		workerMS[w] = reg.WorkerHistogram("galerkin.solve_ms", w, obs.MSBuckets)
	}
	blocks := alloc2(b, n)
	// state[j] is y_j; rhs[j] receives u_j(t) and becomes the step's
	// right-hand side in place.
	state, rhs := alloc2(nsrc, n), alloc2(nsrc, n)
	weighted := make([][]int, nsrc) // the blocks each source weights
	for m := 0; m < b; m++ {
		if j := sys.source(m); j >= 0 {
			weighted[j] = append(weighted[j], m)
		}
	}
	// Per-worker chunk scratch, reused every step: the C·x product and
	// the chunk's solution and right-hand-side column headers.
	type chunkScratch struct {
		cx     []float64
		xs, bs [][]float64
	}
	scratch := make([]chunkScratch, workers)
	for w := range scratch {
		scratch[w] = chunkScratch{cx: make([]float64, n), xs: make([][]float64, 0, nsrc), bs: make([][]float64, 0, nsrc)}
	}
	live := make([]bool, nsrc)
	srcs := make([]int, 0, nsrc) // live sources, ascending
	// markLive adds every source that weights a block and whose fresh
	// excitation has a nonzero entry.
	markLive := func() {
		grew := false
		for j := range live {
			if !live[j] && len(weighted[j]) > 0 && !allZero(rhs[j]) {
				live[j], grew = true, true
			}
		}
		if grew {
			srcs = srcs[:0]
			for j, on := range live {
				if on {
					srcs = append(srcs, j)
				}
			}
		}
	}
	step := 0 // the step solveChunk solves; 0 is the DC solve
	solveChunk := func(worker, lo, hi int) error {
		if err := cancel.Poll(opts.Ctx, "galerkin.decoupled", step); err != nil {
			return err
		}
		sc := &scratch[worker]
		var solveStart time.Time
		if step > 0 && workerMS[worker] != nil {
			solveStart = time.Now()
		}
		sc.xs, sc.bs = sc.xs[:0], sc.bs[:0]
		for _, j := range srcs[lo:hi] {
			r := rhs[j]
			if step > 0 {
				c0.MulVec(sc.cx, state[j])
				for i := range r {
					r[i] += sc.cx[i] / opts.Step
				}
			}
			sc.xs = append(sc.xs, state[j])
			sc.bs = append(sc.bs, r)
		}
		if step == 0 {
			if err := dcLad.SolveMany(0, sc.xs, sc.bs); err != nil {
				return fmt.Errorf("galerkin: decoupled DC solve (sources %d..%d): %w", srcs[lo], srcs[hi-1], err)
			}
		} else if err := lad.SolveMany(step, sc.xs, sc.bs); err != nil {
			return fmt.Errorf("galerkin: decoupled step %d (sources %d..%d): %w", step, srcs[lo], srcs[hi-1], err)
		}
		for _, j := range srcs[lo:hi] {
			for _, m := range weighted[j] {
				scaleTo(blocks[m], sys.Weights[j][m], state[j])
			}
		}
		if step > 0 && workerMS[worker] != nil {
			workerMS[worker].ObserveSince(solveStart)
		}
		return nil
	}
	sys.Sources(0, rhs)
	markLive()
	if err := parallel.Split(workers, len(srcs), solveChunk); err != nil {
		return Result{}, err
	}
	if visit != nil {
		visit(0, 0, blocks)
	}
	for k := 1; k <= opts.Steps; k++ {
		if err := cancel.Poll(opts.Ctx, "galerkin.decoupled", k); err != nil {
			return Result{}, err
		}
		step = k
		t := float64(k) * opts.Step
		stepStart := time.Now()
		sys.Sources(t, rhs)
		markLive()
		if err := parallel.Split(workers, len(srcs), solveChunk); err != nil {
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
	// live_columns counts the live sources: the columns of the batched
	// solves.
	spT.SetAttrs(obs.Int("live_columns", len(srcs)))
	res.Factorer = lad.Rung()
	// Escalations can have moved the solve to a costlier factor.
	res.FactorNNZ, res.FactorFlops, res.FillRatio = st.nnz, st.flops, st.fill
	res.CondEst = lad.CondEstimate(n)
	return res, nil
}

// allZero reports whether every entry of v is zero (either sign).
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
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

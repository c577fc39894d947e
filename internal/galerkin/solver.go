package galerkin

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/numguard"
	"opera/internal/numguard/inject"
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
	// ForceCoupled sends every system, separable ones included, to the
	// coupled CG (the ablation reference for the eigenbasis recursions).
	ForceCoupled bool
	// ForceLU skips every Cholesky attempt: the eigenbasis ladders, the
	// coupled CG's mean preconditioner and the block ladder all start
	// at LU. The augmented Galerkin matrix is SPD for realistic
	// variation magnitudes; LU covers the rest.
	ForceLU bool
	// Workers caps the worker pool of the eigenbasis path's factors and
	// recursion chunks and of the coupled path's Kronecker apply and
	// preconditioner column ranges (one batched solve per worker); 0 or
	// negative means GOMAXPROCS. Results are bit-identical for every
	// value.
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
	// Ctx, when non-nil, is polled at every time step (every solve
	// path) and before every chunk solve on the eigenbasis path; a
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
	// Decoupled reports a deterministic operator (§5.1).
	Decoupled bool
	// Factorer names what served the solve: the furthest rung the
	// eigenbasis ladders reached ("supernodal", "lu", "cg+ic0");
	// "cg+mean-precond" for CG, or the block ladder's rung
	// ("block-cholesky"; "lu" under ForceLU) after its cost handoff;
	// "<eigenbasis|cg+mean-precond>→<rung>" after a fault moved the
	// window to the block ladder.
	Factorer   string
	AugmentedN int // size of the system solved: n·B, or n when Decoupled
	// FactorNNZ is nnz(L) of the factor the steps ran on: one step
	// factor's on the eigenbasis path (all share one pattern), the
	// preconditioner's while CG serves, else the block companion's.
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
// anything retained. An exactly separable system steps as recursions in
// the chaos eigenbasis; any other, or any under ForceCoupled, by CG.
func Solve(sys *System, opts Options, visit func(step int, t float64, coeffs [][]float64)) (Result, error) {
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if !opts.ForceCoupled {
		if p := planEigen(sys); p != nil {
			res, err := solveRecursions(sys, p, opts, visit)
			if err != errFactorsTooLarge {
				return res, err
			}
		}
	}
	return solveCoupled(sys, opts, visit)
}

// eigenRung names the eigenbasis step in transitions, Result.Factorer
// and fault injection, which corrupts its mixed-out state.
const eigenRung = "eigenbasis"

var errFactorsTooLarge = errors.New("galerkin: eigenbasis factors exceed maxBlockFactorBytes")

// solveRecursions steps the recursions of p (separable.go). One
// supernodal analysis of the mean companion G₀ + C₀/h serves G₀ (for DC)
// and every shift; each factor has a scalar ladder of its own, prepared
// in parallel, that verifies every recursion solve on the cadence. A
// recursion stays unsolved at +0, and out of the blocks, until its
// excitation has a nonzero entry. The live recursions split into one
// chunk per worker, with one batched SolveMany per run sharing a shift;
// a batched solve's per-column arithmetic is independent of the batch
// and each block sums its terms in a fixed order, so coefficients are
// bit-identical for every worker count.
//
// With Q = I each block is one weight times one verified recursion, and
// the scaled residual ‖Ax−b‖/(‖A‖‖x‖) is invariant under scaling.
// Otherwise each verified step also checks the mixed-out state against
// the Kronecker-form operator; above tolerance the step and the rest of
// the window move to the block ladder.
func solveRecursions(sys *System, p *eigenPlan, opts Options, visit func(int, float64, [][]float64)) (Result, error) {
	tr := opts.Obs
	n, b, nrec := sys.N, sys.Basis.Size(), len(p.recs)
	workers := parallel.Workers(opts.Workers)
	spO := tr.Start("order", obs.String("ordering", opts.Ordering.String()), obs.Int("n", n))
	mean := sparse.Add(1, p.g0, 1/opts.Step, p.c0) // holds G₀'s pattern and every shift's
	perm := order.Permute(opts.Ordering, mean)
	spO.End()

	rep := &numguard.Report{}
	rep.Bind(tr.Registry())
	spF := tr.Start("factor")
	spA := tr.Start("galerkin.assemble", obs.Int("n", n), obs.Int("basis", b))
	mats := []*sparse.Matrix{p.g0} // factor 0 is G₀; factor 1+s is G₀ + λ_s·C₀/h
	for _, l := range p.shifts {
		mats = append(mats, sparse.Add(1, p.g0, l/opts.Step, p.c0))
	}
	var aug *augmented // the Kronecker-form check's, when Q ≠ I
	if p.mixed {
		aug = newAugmented(sys, opts, perm, workers, rep)
	}
	spA.End()
	sym := factor.CholAnalyzeSupernodal(mean, perm, -1)
	if float64(len(mats))*float64(sym.PanelNNZ())*8 > maxBlockFactorBytes {
		spF.End()
		return Result{}, errFactorsTooLarge
	}
	res := Result{Decoupled: !p.mixed, AugmentedN: n, guard: rep}
	if p.mixed {
		res.AugmentedN = n * b
	}
	pool := min(workers, len(mats))
	lads := make([]*numguard.Ladder, len(mats))
	stats := make([]factorStats, len(mats))
	var rungs []string
	for f, a := range mats {
		rs := scalarRungs(a, sym, perm, workers/pool, opts.Guard, opts.ForceLU, &stats[f])
		stage := "step"
		if f == 0 {
			stage = "dc"
			for _, r := range rs {
				rungs = append(rungs, r.Name)
			}
		}
		lads[f] = numguard.NewLadder(stage, opts.Guard, a, a.NormInf(), rs, rep)
	}
	errs := make([]error, len(mats))
	if err := parallel.ForEach(pool, len(mats), func(_, f int) error {
		_, errs[f] = lads[f].Solver(0)
		return nil
	}); err != nil {
		return Result{}, err
	}
	if err := errors.Join(errs...); err != nil {
		return Result{}, fmt.Errorf("galerkin: eigenbasis factorization: %w", err)
	}
	// describe reports the step ladder that escalated furthest.
	describe := func() {
		k := 1
		for f := 2; f < len(lads); f++ {
			if slices.Index(rungs, lads[f].Rung()) > slices.Index(rungs, lads[k].Rung()) {
				k = f
			}
		}
		res.Factorer = lads[k].Rung()
		res.FactorNNZ, res.FactorFlops, res.FillRatio = stats[k].nnz, stats[k].flops, stats[k].fill
	}
	describe()
	spF.SetAttrs(obs.String("rung", res.Factorer), obs.Int("factor_nnz", res.FactorNNZ), obs.Int("step_factors", len(p.shifts)))
	spF.End()

	spT := tr.Start("transient", obs.Int("steps", opts.Steps))
	spT.MarkAllocsApprox() // the chunk fan-out allocates on worker goroutines
	defer spT.End()
	chunks := min(workers, nrec)
	reg := tr.Registry()
	reg.Gauge("parallel.workers").Set(float64(chunks))
	// galerkin.solve_ms.w<k> observes each chunk solve worker k runs.
	workerMS := make([]*obs.Histogram, chunks)
	for w := range workerMS {
		workerMS[w] = reg.WorkerHistogram("galerkin.solve_ms", w, obs.MSBuckets)
	}
	blocks := alloc2(b, n)
	src := alloc2(len(sys.Weights), n) // the excitation sources u_j(t)
	// state[r] is recursion r's y; rhs[r] receives its excitation and
	// becomes the step's right-hand side in place.
	state, rhs := alloc2(nrec, n), alloc2(nrec, n)
	// Per-worker chunk scratch: the C·y product and the batch headers.
	type chunkScratch struct {
		cy     []float64
		xs, bs [][]float64
	}
	scratch := make([]chunkScratch, chunks)
	for w := range scratch {
		scratch[w] = chunkScratch{cy: make([]float64, n), xs: make([][]float64, 0, nrec), bs: make([][]float64, 0, nrec)}
	}
	live := make([]bool, nrec)
	recs := make([]int, 0, nrec) // live recursions, ascending
	markLive := func() {
		grew := false
		for r, on := range live {
			if !on {
				combine(rhs[r], p.recs[r].coef, src, nil)
				if !allZero(rhs[r]) {
					live[r], grew = true, true
				}
			}
		}
		if grew {
			recs = recs[:0]
			for r, on := range live {
				if on {
					recs = append(recs, r)
				}
			}
		}
	}
	step := 0 // the step solveChunk solves; 0 is the DC solve
	factorOf := func(r int) int {
		if step == 0 {
			return 0
		}
		return 1 + p.recs[r].shift
	}
	solveChunk := func(worker, lo, hi int) error {
		if err := cancel.Poll(opts.Ctx, "galerkin.decoupled", step); err != nil {
			return err
		}
		sc := &scratch[worker]
		var solveStart time.Time
		if step > 0 && workerMS[worker] != nil {
			solveStart = time.Now()
		}
		for s := lo; s < hi; {
			f := factorOf(recs[s])
			e := s + 1
			for e < hi && factorOf(recs[e]) == f {
				e++
			}
			sc.xs, sc.bs = sc.xs[:0], sc.bs[:0]
			for _, r := range recs[s:e] {
				combine(rhs[r], p.recs[r].coef, src, nil)
				if step > 0 {
					l := p.shifts[f-1]
					p.c0.MulVec(sc.cy, state[r])
					for i := range rhs[r] {
						rhs[r][i] += l * sc.cy[i] / opts.Step
					}
				}
				sc.xs = append(sc.xs, state[r])
				sc.bs = append(sc.bs, rhs[r])
			}
			if err := lads[f].SolveMany(step, sc.xs, sc.bs); err != nil {
				return fmt.Errorf("galerkin: eigenbasis step %d (recursions %d..%d): %w", step, recs[s], recs[e-1], err)
			}
			s = e
		}
		if step > 0 && workerMS[worker] != nil {
			workerMS[worker].ObserveSince(solveStart)
		}
		return nil
	}
	mixOut := func(_, lo, hi int) error {
		for m := lo; m < hi; m++ {
			combine(blocks[m], p.mix[m], state, live)
		}
		return nil
	}
	cfg := opts.Guard.WithDefaults()
	// solve solves step k at time t into blocks.
	solve := func(k int, t float64) error {
		step = k
		if aug != nil && aug.block != nil {
			err := aug.step(k, t)
			aug.unpack(aug.x, blocks)
			return err
		}
		sys.Sources(t, src)
		markLive()
		check := p.mixed && cfg.ShouldVerify(k)
		if check {
			aug.pack(blocks, aug.x) // the previous step's state
			aug.load(t, k > 0)
		}
		if err := parallel.Split(chunks, len(recs), solveChunk); err != nil {
			return err
		}
		lads[0] = nil // G₀'s factor serves the DC solve alone
		if err := parallel.Split(workers, b, mixOut); err != nil || !check {
			return err
		}
		aug.pack(blocks, aug.x)
		inject.CorruptSolve(eigenRung, k, aug.x)
		op, norm := aug.stepOp, aug.stepNorm
		if k == 0 {
			op, norm = aug.gOp, aug.gNorm
		}
		if r := numguard.ScaledResidual(op, norm, aug.work, aug.x, aug.rhs); r <= cfg.ResidualTol {
			rep.Accept(r)
		} else if err := aug.escalate(eigenRung, k, fmt.Sprintf("Kronecker-form residual %.3g above tolerance %.3g", r, cfg.ResidualTol)); err != nil {
			return fmt.Errorf("galerkin: eigenbasis step %d: %w", k, err)
		}
		aug.unpack(aug.x, blocks)
		return nil
	}
	if err := stepWindow(opts, "galerkin.decoupled", &res, visit, solve, func() [][]float64 { return blocks }); err != nil {
		return Result{}, err
	}
	// live_columns counts the batched solves' columns.
	spT.SetAttrs(obs.Int("live_columns", len(recs)))
	if aug != nil && aug.block != nil {
		aug.describe(&res)
		return res, nil
	}
	describe() // an escalation can have moved a ladder to a costlier factor
	// The smallest shift's companion lies nearest G₀, the worst
	// conditioned of the step factors in practice.
	res.CondEst = lads[1].CondEstimate(n)
	return res, nil
}

// stepWindow runs a window: the DC solve, solve(0, 0), then solve(k, t)
// for every step, with what every path does around a step: the cancel
// poll under stage, the step histogram and counter, the progress mark,
// the visit of blocks() and the step count on res.
func stepWindow(opts Options, stage string, res *Result, visit func(int, float64, [][]float64), solve func(k int, t float64) error, blocks func() [][]float64) error {
	stepMS := opts.Obs.Registry().Histogram("galerkin.step_ms", obs.MSBuckets)
	stepsTotal := opts.Obs.Registry().Counter("galerkin.steps_total")
	if err := solve(0, 0); err != nil {
		return err
	}
	if visit != nil {
		visit(0, 0, blocks())
	}
	for k := 1; k <= opts.Steps; k++ {
		if err := cancel.Poll(opts.Ctx, stage, k); err != nil {
			return err
		}
		t := float64(k) * opts.Step
		stepStart := time.Now()
		if err := solve(k, t); err != nil {
			return err
		}
		stepMS.ObserveSince(stepStart)
		stepsTotal.Inc()
		opts.Progress.Mark()
		if visit != nil {
			visit(k, t, blocks())
		}
		res.StepsRun = k
	}
	return nil
}

// combine sets dst = Σ_i c[i]·v[i] over the i with c[i] ≠ 0 (and on[i],
// when on is non-nil): the first term written, the others added in
// ascending order. dst is left alone when no term is left.
func combine(dst, c []float64, v [][]float64, on []bool) {
	first := true
	for i, ci := range c {
		if ci == 0 || (on != nil && !on[i]) {
			continue
		}
		if first {
			scaleTo(dst, ci, v[i])
			first = false
			continue
		}
		for k, x := range v[i] {
			dst[k] += ci * x
		}
	}
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

// sumTerms returns the mean node matrix of a term list, the sum of its
// identity-coupled terms' node matrices. The result is always freshly
// allocated: a single-term sum must NOT return the term's own matrix,
// or the caller would mutate solver input through the alias.
func sumTerms(ts []Term, n int) *sparse.Matrix {
	var acc *sparse.Matrix
	for _, t := range ts {
		switch {
		case !isIdentity(t.Coupling):
		case acc == nil:
			acc = t.A.Clone()
		default:
			acc = sparse.Add(1, acc, 1, t.A)
		}
	}
	if acc == nil {
		return sparse.NewMatrix(n, n)
	}
	return acc
}

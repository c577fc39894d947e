package numguard

import (
	"fmt"
	"math"
	"sync"

	"opera/internal/numguard/inject"
)

// Rung is one solver configuration in the escalation ladder, from
// cheapest/most fragile to most expensive/most robust. Prepare is
// called at most once per escalation (lazily — a rung that is never
// reached is never factored).
type Rung struct {
	Name    string
	Prepare func() (Solver, error)
}

// Ladder runs verified solves against an ordered list of rungs,
// escalating when a rung's factorization fails, its solution is
// non-finite, or its residual cannot be refined below tolerance.
//
// A Ladder is safe for concurrent Solve and SolveMany calls on
// disjoint x/b pairs (the decoupled-Galerkin workers share one ladder,
// one column chunk each): rung state is mutex-guarded,
// residual/refinement scratch is pooled per call, and an escalation
// requested by a worker that lost the race to another worker's
// escalation is coalesced rather than double-counted. The rungs'
// Solvers must themselves tolerate concurrent calls — true of every
// factorization in internal/factor.
type Ladder struct {
	Stage string // labels transitions/diagnoses ("step", "dc", ...)

	cfg    Config
	op     Operator
	anorm  float64
	rungs  []Rung
	report *Report

	mu     sync.Mutex
	cur    int
	solver Solver
	last   Solver // most recent usable solver, kept across escalations for diagnosis

	scratch sync.Pool // *ladderScratch
}

// ladderScratch carries the per-call residual and correction vectors
// and the residual history of the solve in progress.
type ladderScratch struct {
	r, dx []float64
	hist  []float64
}

// NewLadder builds a ladder over op (the matrix being solved, for
// residuals) with ‖A‖∞ ≈ anorm. report may be shared across ladders of
// one analysis; nil allocates a private one.
func NewLadder(stage string, cfg Config, op Operator, anorm float64, rungs []Rung, report *Report) *Ladder {
	if report == nil {
		report = &Report{}
	}
	return &Ladder{Stage: stage, cfg: cfg.WithDefaults(), op: op, anorm: anorm, rungs: rungs, report: report}
}

// Report returns the shared telemetry.
func (l *Ladder) Report() *Report { return l.report }

// Rung returns the name of the rung currently in use (after at least
// one successful Prepare), or the name of the next rung to try.
func (l *Ladder) Rung() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rungName(l.cur)
}

// rungName maps a rung index to its display name. The rung list is
// immutable, so this needs no lock.
func (l *Ladder) rungName(idx int) string {
	if idx < len(l.rungs) {
		return l.rungs[idx].Name
	}
	return "exhausted"
}

func (l *Ladder) nextNameLocked(idx int) string {
	if idx+1 < len(l.rungs) {
		return l.rungs[idx+1].Name
	}
	return ""
}

// Solver prepares (if necessary) and returns the current rung's solver,
// escalating past rungs whose factorization fails. It is used by
// callers that need the raw factor (e.g. as a preconditioner).
func (l *Ladder) Solver(step int) (Solver, error) {
	s, _, err := l.acquire(step)
	return s, err
}

// acquire returns the current rung's solver together with the rung
// index it belongs to, preparing lazily and skipping rungs whose
// factorization fails.
func (l *Ladder) acquire(step int) (Solver, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.solver == nil {
		if l.cur >= len(l.rungs) {
			return nil, l.cur, &Diagnosis{
				Stage: l.Stage, Step: step, Rung: "exhausted",
				Reason: "no rung produced a usable factorization",
			}
		}
		r := l.rungs[l.cur]
		var s Solver
		var err error
		if inject.FailPrepare(r.Name) {
			err = fmt.Errorf("injected factorization failure")
		} else {
			s, err = r.Prepare()
		}
		if err != nil {
			l.recordTransition(step, r.Name, l.nextNameLocked(l.cur), fmt.Sprintf("factorization failed: %v", err))
			l.cur++
			continue
		}
		l.solver = s
		l.last = s
	}
	return l.solver, l.cur, nil
}

func (l *Ladder) recordTransition(step int, from, to, reason string) {
	l.report.AddTransition(Transition{
		Stage: l.Stage, Step: step, From: from, To: to, Reason: reason,
	})
}

// escalateFrom abandons rung idx. When another worker already escalated
// past idx the call coalesces into a plain retry (no transition is
// recorded twice for one bad factor). It returns false when no rung is
// left.
func (l *Ladder) escalateFrom(step, idx int, reason string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != idx {
		return l.cur < len(l.rungs)
	}
	l.recordTransition(step, l.rungName(idx), l.nextNameLocked(idx), reason)
	l.cur++
	l.solver = nil
	if step > 0 {
		l.report.AddStepRetry()
	}
	return l.cur < len(l.rungs)
}

func (l *Ladder) getScratch(n int) *ladderScratch {
	if sc, _ := l.scratch.Get().(*ladderScratch); sc != nil && cap(sc.r) >= n {
		sc.r = sc.r[:n]
		sc.dx = sc.dx[:n]
		return sc
	}
	return &ladderScratch{r: make([]float64, n), dx: make([]float64, n)}
}

// ManySolver is a Solver that also solves several right-hand sides in
// one call; *factor.SuperFactor's one-sweep SolveMany is the one that
// matters. Its results must equal column-by-column SolveTo.
type ManySolver interface {
	Solver
	SolveMany(x, b [][]float64)
}

// Solve computes x ← A⁻¹·b with verification: non-finite sentinel on
// every call, residual check on the configured cadence, capped
// iterative refinement before any escalation, and rung escalation (the
// whole solve retried on the next rung) when refinement cannot reach
// tolerance. It returns a *Diagnosis when the ladder is exhausted —
// never a silently wrong x.
func (l *Ladder) Solve(step int, x, b []float64) error {
	sc := l.getScratch(len(b))
	defer l.scratch.Put(sc)
	sc.hist = sc.hist[:0]
	return l.solve(step, x, b, sc)
}

// SolveMany solves x[c] ← A⁻¹·b[c] for every column with the same
// guarantees as Solve. When the current rung's solver is a ManySolver
// all columns solve in one call, otherwise column by column; each
// column is then checked, refined and escalated exactly as Solve
// would. A column that escalates finishes on the next rung and the
// columns after it re-solve there, so the outcome — transitions,
// refinements, verified counts and x — is that of Solve called on the
// columns in order.
func (l *Ladder) SolveMany(step int, x, b [][]float64) error {
	if len(b) == 0 {
		return nil
	}
	sc := l.getScratch(len(b[0]))
	defer l.scratch.Put(sc)
	for c := 0; c < len(b); {
		s, idx, err := l.acquire(step)
		if err != nil {
			return err
		}
		if m, ok := s.(ManySolver); ok {
			m.SolveMany(x[c:], b[c:])
		} else {
			for i := c; i < len(b); i++ {
				s.SolveTo(x[i], b[i])
			}
		}
		for c < len(b) {
			sc.hist = sc.hist[:0]
			done, err := l.settle(step, idx, s, x[c], b[c], sc)
			if !done {
				err = l.solve(step, x[c], b[c], sc)
			}
			if err != nil {
				return err
			}
			c++
			if !done {
				break // the rung changed: re-solve the rest on the new one
			}
		}
	}
	return nil
}

// solve is Solve's retry loop: solve on the current rung and settle,
// until a rung's answer is accepted or the ladder is exhausted. sc.hist
// carries the residual history so far.
func (l *Ladder) solve(step int, x, b []float64, sc *ladderScratch) error {
	for {
		s, idx, err := l.acquire(step)
		if err != nil {
			if d, ok := err.(*Diagnosis); ok {
				d.Residuals = append([]float64(nil), sc.hist...)
			}
			return err
		}
		s.SolveTo(x, b)
		if done, err := l.settle(step, idx, s, x, b, sc); done {
			return err
		}
	}
}

// settle runs every check after solver s of rung idx wrote x ← A⁻¹·b:
// fault injection, the non-finite sentinel, residual verification on
// the cadence, capped iterative refinement, and escalation. It reports
// done = false when it escalated past idx and x must be re-solved on
// the next rung; otherwise x is accepted (err nil) or the ladder is
// exhausted (err a *Diagnosis). The residual history accumulates in
// sc.hist.
func (l *Ladder) settle(step, idx int, s Solver, x, b []float64, sc *ladderScratch) (done bool, err error) {
	rung := l.rungName(idx)
	inject.CorruptSolve(rung, step, x)
	if !Finite(x) {
		l.report.NonFinite()
		sc.hist = append(sc.hist, math.Inf(1))
		if l.escalateFrom(step, idx, "non-finite solution") {
			return false, nil
		}
		return true, l.diagnose(step, rung, sc.hist, "non-finite solution on the last rung", len(b))
	}
	if !l.cfg.ShouldVerify(step) {
		return true, nil
	}
	res := ScaledResidual(l.op, l.anorm, sc.r, x, b)
	sc.hist = append(sc.hist, res)
	if res <= l.cfg.ResidualTol {
		l.accept(res)
		return true, nil
	}
	// Iterative refinement: solve on the residual, add the correction.
	// The residual vector is already in sc.r.
	refined := false
	for sweep := 0; sweep < l.cfg.MaxRefine && res > l.cfg.ResidualTol && !math.IsInf(res, 1); sweep++ {
		s.SolveTo(sc.dx, sc.r)
		inject.CorruptSolve(rung, step, sc.dx)
		if !Finite(sc.dx) {
			l.report.NonFinite()
			res = math.Inf(1)
			sc.hist = append(sc.hist, res)
			break
		}
		for i := range x {
			x[i] += sc.dx[i]
		}
		l.report.AddRefinement()
		refined = true
		res = ScaledResidual(l.op, l.anorm, sc.r, x, b)
		sc.hist = append(sc.hist, res)
	}
	if refined {
		l.report.MarkRefinedSolve()
	}
	if res <= l.cfg.ResidualTol {
		l.accept(res)
		return true, nil
	}
	if l.escalateFrom(step, idx, fmt.Sprintf("residual %.3g above tolerance %.3g after %d refinement sweeps",
		res, l.cfg.ResidualTol, l.cfg.MaxRefine)) {
		return false, nil
	}
	return true, l.diagnose(step, rung, sc.hist, "residual above tolerance on every rung", len(b))
}

func (l *Ladder) accept(res float64) {
	l.report.Accept(res)
}

// CondEstimate runs the Hager/Higham 1-norm condition estimate against
// the most recent usable solver (n is the system size) and records it
// on the report. It costs at most five solves — negligible next to a
// transient sweep — and returns 0 when no rung has produced a solver
// yet. Callers invoke it once per analysis, after the solve finishes,
// to attach κ₁ to the job's numerical-health record.
func (l *Ladder) CondEstimate(n int) float64 {
	l.mu.Lock()
	s := l.last
	l.mu.Unlock()
	if s == nil || n <= 0 || l.anorm <= 0 {
		return 0
	}
	c := CondEst1(n, l.anorm, func(x, b []float64) { s.SolveTo(x, b) })
	l.report.SetCond(c)
	return c
}

func (l *Ladder) diagnose(step int, rung string, history []float64, reason string, n int) error {
	d := &Diagnosis{Stage: l.Stage, Step: step, Rung: rung, Residuals: append([]float64(nil), history...), Reason: reason}
	l.mu.Lock()
	s := l.last
	l.mu.Unlock()
	if s != nil {
		d.Cond1 = CondEst1(n, l.anorm, func(x, b []float64) { s.SolveTo(x, b) })
	}
	return d
}

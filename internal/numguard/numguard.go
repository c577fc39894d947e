// Package numguard is the numerical-robustness layer of the solver: no
// factorization-backed answer leaves the system unverified. It provides
// residual verification with capped iterative refinement, an escalation
// ladder over increasingly robust solver rungs (supernodal Cholesky →
// LU with a pivot-growth check → preconditioned CG),
// NaN/Inf sentinels on solution vectors, a Hager/Higham 1-norm
// condition estimate, and a structured Diagnosis error carrying the
// full failure history when every rung is exhausted. The companion
// package numguard/inject supplies deterministic fault-injection hooks
// (test-only) so every ladder transition is exercised by tests instead
// of waiting for a pathological matrix in production.
package numguard

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"opera/internal/obs"
)

// Solver solves A·x = b using a prepared factorization (or an inner
// iteration). x is fully overwritten; b is not modified.
type Solver interface {
	SolveTo(x, b []float64)
}

// SolverFunc adapts a function to the Solver interface.
type SolverFunc func(x, b []float64)

// SolveTo implements Solver.
func (f SolverFunc) SolveTo(x, b []float64) { f(x, b) }

// Operator applies y = A·x — the matrix behind the factorization, used
// for residual computation and refinement.
type Operator interface {
	MulVec(y, x []float64)
}

// Config tunes verification and refinement. The zero value selects the
// defaults below.
type Config struct {
	// ResidualTol is the acceptance threshold on the scaled residual
	// ‖Ax−b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞). Default 1e-8 — far looser than a
	// healthy double-precision direct solve (~1e-14 on these systems)
	// and far tighter than any tolerable corruption of the chaos
	// coefficients.
	ResidualTol float64
	// MaxRefine caps the iterative-refinement sweeps per solve before
	// the ladder escalates. Default 3.
	MaxRefine int
	// VerifyEvery verifies the residual on step 0, step 1, and then
	// every VerifyEvery-th transient step (1 = every step). Non-finite
	// sentinels run on every step regardless. Default 8: verifying every
	// step costs one operator matvec per solve, which measured at 7–10%
	// of the happy-path wall clock on the benchmark grids; every 8th
	// step keeps the overhead ~1% while a drifting factor is still
	// caught within 8 steps (and its poison, immediately).
	VerifyEvery int
	// PivotGrowthMax rejects an LU factorization whose pivot growth
	// max|U| / max|A| exceeds this bound (element growth of that size
	// destroys backward stability). Default 1e8.
	PivotGrowthMax float64
}

// WithDefaults fills unset fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.ResidualTol <= 0 {
		c.ResidualTol = 1e-8
	}
	if c.MaxRefine <= 0 {
		c.MaxRefine = 3
	}
	if c.VerifyEvery <= 0 {
		c.VerifyEvery = 8
	}
	if c.PivotGrowthMax <= 0 {
		c.PivotGrowthMax = 1e8
	}
	return c
}

// ShouldVerify reports whether the residual of a solve at the given
// transient step should be verified under the configured cadence (the
// DC solve and the first step always are).
func (c Config) ShouldVerify(step int) bool {
	return step <= 1 || c.VerifyEvery <= 1 || step%c.VerifyEvery == 0
}

// Transition records one escalation of the ladder.
type Transition struct {
	Stage  string // which solve path escalated ("step", "dc", "transient")
	Step   int    // transient step at which it happened (0 = DC/setup)
	From   string // rung given up on
	To     string // rung escalated to ("" when the ladder is exhausted)
	Reason string
}

// String renders the transition for logs.
func (t Transition) String() string {
	to := t.To
	if to == "" {
		to = "exhausted"
	}
	return fmt.Sprintf("%s step %d: %s → %s (%s)", t.Stage, t.Step, t.From, to, t.Reason)
}

// Report is the telemetry of every guarded solve of one analysis. It is
// shared by the ladders of a solve path and surfaced on the solver
// result. When bound to an obs.Registry (Bind), every update is
// mirrored onto named metrics — the registry is the canonical
// instrumentation sink; the struct fields remain as the structured
// per-analysis view that errors and the CLI summary read.
//
// All mutating methods are safe for concurrent use (parallel solve
// workers share one report); read the exported fields only after the
// analysis has finished, or through Snapshot while it runs.
type Report struct {
	mu sync.Mutex

	// Transitions lists every rung escalation, in order.
	Transitions []Transition
	// Verified counts residual-verified solves; MaxResidual is the
	// worst accepted scaled residual among them.
	Verified    int
	MaxResidual float64
	// Refinements counts iterative-refinement sweeps that ran;
	// RefinedSolves counts solves that needed at least one.
	Refinements   int
	RefinedSolves int
	// NaNEvents counts solves whose output contained NaN/Inf before
	// recovery; StepRetries counts transient steps re-solved on a
	// higher rung.
	NaNEvents   int
	StepRetries int
	// Cond1 is the Hager/Higham 1-norm condition estimate of the
	// operator behind the final rung (0 when never estimated).
	Cond1 float64

	// Registry-backed mirrors (nil when unbound; every obs instrument
	// is a no-op on nil).
	mVerified    *obs.Counter
	mResidual    *obs.Histogram
	mMaxResidual *obs.Gauge
	mEscalations *obs.Counter
	mRefinements *obs.Counter
	mNaN         *obs.Counter
	mRetries     *obs.Counter
	mCond        *obs.Gauge
}

// ResidualBuckets is the histogram layout for scaled residuals:
// 1e-16, 1e-14, ..., 1e-2, 1.
var ResidualBuckets = obs.ExpBuckets(1e-16, 100, 9)

// Bind mirrors all subsequent report updates onto the registry under
// the numguard.* metric names. Nil report or registry is a no-op.
func (r *Report) Bind(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mVerified = reg.Counter("numguard.solves_verified_total")
	r.mResidual = reg.Histogram("numguard.residual_norm", ResidualBuckets)
	r.mMaxResidual = reg.Gauge("numguard.max_residual")
	r.mEscalations = reg.Counter("numguard.ladder_escalations_total")
	r.mRefinements = reg.Counter("numguard.refinement_sweeps_total")
	r.mNaN = reg.Counter("numguard.nan_events_total")
	r.mRetries = reg.Counter("numguard.step_retries_total")
	r.mCond = reg.Gauge("numguard.cond_estimate")
}

// SetCond records a 1-norm condition estimate of the solved operator;
// the worst estimate across ladders wins.
func (r *Report) SetCond(c float64) {
	if r == nil || c <= 0 {
		return
	}
	r.mu.Lock()
	if c > r.Cond1 {
		r.Cond1 = c
	}
	r.mu.Unlock()
	r.mCond.SetMax(c)
}

// Accept records one residual-verified solve with the given scaled
// residual.
func (r *Report) Accept(res float64) {
	r.mu.Lock()
	r.Verified++
	if res > r.MaxResidual {
		r.MaxResidual = res
	}
	r.mu.Unlock()
	r.mVerified.Inc()
	r.mResidual.Observe(res)
	r.mMaxResidual.SetMax(res)
}

// AddTransition records one ladder escalation.
func (r *Report) AddTransition(t Transition) {
	r.mu.Lock()
	r.Transitions = append(r.Transitions, t)
	r.mu.Unlock()
	r.mEscalations.Inc()
}

// AddRefinement records one iterative-refinement sweep.
func (r *Report) AddRefinement() {
	r.mu.Lock()
	r.Refinements++
	r.mu.Unlock()
	r.mRefinements.Inc()
}

// MarkRefinedSolve records that a solve needed at least one sweep.
func (r *Report) MarkRefinedSolve() {
	r.mu.Lock()
	r.RefinedSolves++
	r.mu.Unlock()
}

// NonFinite records a solve whose output contained NaN/Inf.
func (r *Report) NonFinite() {
	r.mu.Lock()
	r.NaNEvents++
	r.mu.Unlock()
	r.mNaN.Inc()
}

// AddStepRetry records a transient step re-solved on a higher rung.
func (r *Report) AddStepRetry() {
	r.mu.Lock()
	r.StepRetries++
	r.mu.Unlock()
	r.mRetries.Inc()
}

// Snapshot returns a copy of the current counters, safe to read while
// solves are still running.
func (r *Report) Snapshot() Report {
	if r == nil {
		return Report{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Report{
		Transitions:   append([]Transition(nil), r.Transitions...),
		Verified:      r.Verified,
		MaxResidual:   r.MaxResidual,
		Refinements:   r.Refinements,
		RefinedSolves: r.RefinedSolves,
		NaNEvents:     r.NaNEvents,
		StepRetries:   r.StepRetries,
		Cond1:         r.Cond1,
	}
}

// Healthy reports whether the analysis completed without escalations,
// refinements or non-finite events.
func (r *Report) Healthy() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Transitions) == 0 && r.Refinements == 0 && r.NaNEvents == 0
}

// Escalations counts the rung transitions recorded so far — the
// per-job signal the service mirrors into its service.slo_* counters
// (an escalating job is a slow job in the making: every transition
// refactors on a costlier rung).
func (r *Report) Escalations() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Transitions)
}

// Summary renders a one-line digest for CLI output.
func (r *Report) Summary() string {
	if r == nil {
		return "numguard: off"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := fmt.Sprintf("%d solves verified, max residual %.2e, %d refinement sweeps",
		r.Verified, r.MaxResidual, r.Refinements)
	if len(r.Transitions) > 0 {
		s += fmt.Sprintf(", %d rung transitions", len(r.Transitions))
	}
	if r.NaNEvents > 0 {
		s += fmt.Sprintf(", %d non-finite events", r.NaNEvents)
	}
	return s
}

// Diagnosis is the structured error returned when the escalation ladder
// is exhausted: instead of silently wrong coefficients the caller gets
// the step, the last rung, the residual history of every attempt, and a
// condition estimate of the last usable factor.
type Diagnosis struct {
	Stage string // solve path that failed ("step", "dc", "transient", ...)
	Step  int    // transient step of the failing solve
	Rung  string // last rung attempted
	// Residuals is the scaled-residual history across attempts and
	// refinement sweeps (+Inf marks a non-finite solution).
	Residuals []float64
	// Cond1 is the Hager/Higham 1-norm condition estimate of the last
	// factor that produced a solution (0 when unavailable).
	Cond1  float64
	Reason string
}

// Error implements the error interface.
func (d *Diagnosis) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "numguard: %s solve failed at step %d on rung %q: %s", d.Stage, d.Step, d.Rung, d.Reason)
	if len(d.Residuals) > 0 {
		fmt.Fprintf(&b, "; residual history %s", formatResiduals(d.Residuals))
	}
	if d.Cond1 > 0 {
		fmt.Fprintf(&b, "; cond₁ estimate %.2e", d.Cond1)
	}
	return b.String()
}

func formatResiduals(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.2e", r)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Finite reports whether every entry of x is finite (no NaN, no ±Inf).
func Finite(x []float64) bool {
	for _, v := range x {
		// A single comparison catches NaN (v-v is NaN) and Inf.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FiniteBlocks reports whether every coefficient block is finite.
func FiniteBlocks(blocks [][]float64) bool {
	for _, b := range blocks {
		if !Finite(b) {
			return false
		}
	}
	return true
}

// NormInf returns ‖x‖∞.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func norm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// ScaledResidual computes r = b − A·x into r and returns the
// normwise-relative backward error ‖r‖∞ / (anorm·‖x‖∞ + ‖b‖∞), where
// anorm approximates ‖A‖∞. A non-finite x yields +Inf.
func ScaledResidual(op Operator, anorm float64, r, x, b []float64) float64 {
	if !Finite(x) {
		return math.Inf(1)
	}
	op.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	den := anorm*NormInf(x) + NormInf(b)
	rn := NormInf(r)
	if den == 0 {
		return rn
	}
	return rn / den
}

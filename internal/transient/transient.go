// Package transient implements fixed-step transient analysis of the
// deterministic RC systems C·dx/dt + G·x = u(t), with backward Euler or
// trapezoidal integration. It is the inner engine of both the Monte
// Carlo baseline (one run per parameter sample) and — applied to the
// block-augmented Galerkin system — of OPERA itself. The companion
// matrix G + C/h is factored once per run (the paper uses a fixed time
// step) with the supernodal Cholesky kernel. One symbolic analysis can
// be shared across runs that differ only in matrix values, and a
// stepper refactors in place when its G and C values change (Refactor)
// by refilling the permuted companion through a slot map built once,
// which is what makes per-sample Monte Carlo refactorization
// affordable. A companion that defeats Cholesky escalates to
// partial-pivoting LU, so the stepper's ladder is supernodal → LU.
package transient

import (
	"context"
	"errors"
	"fmt"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/iterative"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/sparse"
)

// Method selects the integration rule.
type Method int

// Integration methods.
const (
	BackwardEuler Method = iota
	Trapezoidal
)

// String names the method.
func (m Method) String() string {
	switch m {
	case BackwardEuler:
		return "backward-euler"
	case Trapezoidal:
		return "trapezoidal"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a transient run.
type Options struct {
	Step   float64 // fixed time step h > 0
	Steps  int     // number of steps (the run covers [0, Steps·h])
	Method Method
	// Perm is an optional fill-reducing permutation for the companion
	// matrix factorization.
	Perm []int
	// Symbolic optionally supplies a pre-computed supernodal analysis
	// whose pattern covers G + scale·C; it overrides Perm.
	Symbolic *factor.SuperSymbolic
	// Obs, when non-nil, feeds transient.step_ms /
	// transient.steps_total on the tracer's registry. Nil disables the
	// per-step timing entirely (no time.Now in Advance).
	Obs *obs.Tracer
	// Ctx, when non-nil, is polled once per time step by Run; a
	// canceled or expired context stops the transient at the next step
	// boundary with a structured error wrapping cancel.ErrCanceled.
	// Nil disables the check.
	Ctx context.Context
	// Progress, when non-nil, is advanced once per completed time step
	// — the liveness signal a stall watchdog monitors. Nil disables it.
	Progress *obs.Progress
	// Resume, when non-nil, makes Run continue a previous transient
	// from the snapshot instead of computing the DC point: stepping
	// starts at Resume.Step+1 and visit is invoked only for the
	// remaining steps. The trajectory is bit-identical to the
	// uninterrupted run because each step depends only on the previous
	// state and the excitation, both captured exactly.
	Resume *Snapshot
}

// Snapshot is a resumable capture of a Stepper mid-run: the step index
// and state vector (plus the trapezoidal excitation history). Taken by
// Stepper.Snapshot, applied by Stepper.Restore or Options.Resume.
// float64 values survive JSON bit-exactly, so a snapshot persisted via
// internal/checkpoint resumes with no numerical drift.
type Snapshot struct {
	Step     int       `json:"step"`
	Time     float64   `json:"time"`
	X        []float64 `json:"x"`
	UPrev    []float64 `json:"u_prev,omitempty"`
	HavePrev bool      `json:"have_prev"`
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Step <= 0 {
		return fmt.Errorf("transient: step must be positive, got %g", o.Step)
	}
	if o.Steps < 1 {
		return fmt.Errorf("transient: need at least one step, got %d", o.Steps)
	}
	return nil
}

// ErrSize reports mismatched dimensions.
var ErrSize = errors.New("transient: dimension mismatch")

// Stepper advances one RC system through time.
type Stepper struct {
	N     int
	opts  Options
	scale float64 // the companion is G + scale·C
	g, c  *sparse.Matrix
	sym   *factor.SuperSymbolic // the symbolic analysis behind fac
	// lower is the companion's permuted lower triangle, the form the
	// supernodal panels scatter from. Its entry q is G's entry fromG[q]
	// plus scale times C's entry fromC[q] (-1: absent from that
	// matrix), combined as sparse.Add(1, G, scale, C) does.
	lower        *sparse.Matrix
	fromG, fromC []int
	fac          *factor.SuperFactor // panel storage, recycled by every Refactor
	lu           *factor.LUFactor    // non-nil while the LU rung is in use
	x            []float64           // current state
	t            float64
	stepNo       int
	// Workspaces, kept across Refactor. y is the factor-solve scratch,
	// so a stepper in a steady loop performs zero per-solve
	// allocations; cg is the DC solve's.
	b, cx, gx, uPrev, y []float64
	havePrev            bool
	cg                  iterative.CGWork
	pre                 iterative.Preconditioner

	// Instruments (nil when Options.Obs is nil; Advance checks stepMS
	// so the disabled path never reads the clock).
	stepMS     *obs.Histogram
	stepMSMax  *obs.Gauge
	stepsTotal *obs.Counter
}

// NewStepper factors the companion matrix of (g, c) under opts with
// the supernodal Cholesky kernel, on one worker; power grid MNA systems
// with Norton-transformed pads always qualify. The stepper keeps g and
// c: Refactor picks up new values written into them.
func NewStepper(g, c *sparse.Matrix, opts Options) (*Stepper, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.Rows
	if g.Cols != n || c.Rows != n || c.Cols != n {
		return nil, fmt.Errorf("%w: G is %dx%d, C is %dx%d", ErrSize, g.Rows, g.Cols, c.Rows, c.Cols)
	}
	scale := 1 / opts.Step
	if opts.Method == Trapezoidal {
		scale = 2 / opts.Step
	}
	sym := opts.Symbolic
	if sym == nil {
		sym = factor.CholAnalyzeSupernodal(sparse.Add(1, g, scale, c), opts.Perm, -1)
	}
	st := &Stepper{
		N:     n,
		opts:  opts,
		scale: scale,
		g:     g,
		c:     c,
		sym:   sym,
		lower: sym.Lower(),
		x:     make([]float64, n),
		b:     make([]float64, n),
		cx:    make([]float64, n),
		y:     make([]float64, n),
	}
	var err error
	if st.fromG, err = st.lowerSources(g); err != nil {
		return nil, err
	}
	if st.fromC, err = st.lowerSources(c); err != nil {
		return nil, err
	}
	st.pre = iterative.PrecondFunc(st.solveTo)
	if reg := opts.Obs.Registry(); reg != nil {
		st.stepMS = reg.Histogram("transient.step_ms", obs.MSBuckets)
		// Worst single step of the run: a slow-job flight entry shows at
		// a glance whether one pathological step (ladder escalation, GC
		// pause) or uniform slowness dominated the transient.
		st.stepMSMax = reg.Gauge("transient.step_ms_max")
		st.stepsTotal = reg.Counter("transient.steps_total")
	}
	if err := st.Refactor(); err != nil {
		return nil, err
	}
	return st, nil
}

// lowerSources inverts m's slot map into the companion's lower
// triangle: the result holds, per lower entry, the index of the entry
// of m it takes, or -1.
func (s *Stepper) lowerSources(m *sparse.Matrix) ([]int, error) {
	slot, err := s.sym.LowerSlots(m)
	if err != nil {
		return nil, fmt.Errorf("transient: companion: %w", err)
	}
	from := make([]int, s.lower.NNZ())
	for q := range from {
		from[q] = -1
	}
	for p, q := range slot {
		if q >= 0 {
			from[q] = p
		}
	}
	return from, nil
}

// Refactor refactors the companion after the caller has rewritten the
// values, not the patterns, of the g and c the stepper was built on,
// as one Monte Carlo sample after another does. It refills the
// permuted companion through the slot map NewStepper built, with the
// operations sparse.Add would perform, and factors it in the panel
// storage of the previous factor; a companion that defeats Cholesky
// escalates to LU, for which alone the CSC companion is assembled.
// Call Init or InitDC before stepping again.
func (s *Stepper) Refactor() error {
	gv, cv, lv := s.g.Val, s.c.Val, s.lower.Val
	for q, gi := range s.fromG {
		switch ci := s.fromC[q]; {
		case gi >= 0 && ci >= 0:
			lv[q] = gv[gi] + s.scale*cv[ci]
		case gi >= 0:
			lv[q] = gv[gi]
		case ci >= 0:
			lv[q] = s.scale * cv[ci]
		}
	}
	s.lu = nil
	fac, err := s.sym.FactorLower(s.lower, s.fac, 1)
	if err == nil {
		s.fac = fac
		return nil
	}
	// A companion matrix that defeats Cholesky (borderline indefinite
	// under extreme parameter samples) escalates to partial-pivoting LU
	// rather than aborting the run.
	if !errors.Is(err, factor.ErrNotPositiveDefinite) {
		return fmt.Errorf("transient: companion factorization: %w", err)
	}
	lu, luErr := factor.LU(s.companion(), s.sym.Perm)
	if luErr != nil {
		return fmt.Errorf("transient: companion factorization: %v; LU escalation: %w", err, luErr)
	}
	s.lu = lu
	return nil
}

// companion assembles G + scale·C in CSC form, for the LU rung.
func (s *Stepper) companion() *sparse.Matrix { return sparse.Add(1, s.g, s.scale, s.c) }

// Factorer names the factorization rung in use ("supernodal" or "lu").
func (s *Stepper) Factorer() string {
	if s.lu != nil {
		return "lu"
	}
	return "supernodal"
}

// solveTo dispatches to the active factorization rung, reusing the
// stepper-owned scratch vector.
func (s *Stepper) solveTo(x, b []float64) {
	if s.lu != nil {
		s.lu.SolveToWithScratch(x, b, s.y)
		return
	}
	s.fac.SolveToWithScratch(x, b, s.y)
}

// guardState checks the freshly computed state for NaN/Inf; on
// poisoning it retries the solve once on the LU rung and, failing that,
// returns a structured numguard.Diagnosis instead of letting garbage
// propagate through the recursion.
func (s *Stepper) guardState(stage string, step int, b []float64) error {
	if numguard.Finite(s.x) {
		return nil
	}
	if s.lu == nil {
		lu, err := factor.LU(s.companion(), s.sym.Perm)
		if err == nil {
			s.lu = lu
			s.lu.SolveTo(s.x, b)
			if numguard.Finite(s.x) {
				return nil
			}
		}
	}
	return &numguard.Diagnosis{
		Stage: stage, Step: step, Rung: s.Factorer(),
		Reason: "non-finite transient state",
	}
}

// Symbolic exposes the companion's symbolic analysis so callers can
// share one etree/supernode computation across steppers whose
// matrices have identical patterns (see Options.Symbolic).
func (s *Stepper) Symbolic() *factor.SuperSymbolic { return s.sym }

// Snapshot captures the stepper's resumable state (deep copy).
func (s *Stepper) Snapshot() *Snapshot {
	sn := &Snapshot{
		Step:     s.stepNo,
		Time:     s.t,
		X:        append([]float64(nil), s.x...),
		HavePrev: s.havePrev,
	}
	if s.havePrev {
		sn.UPrev = append([]float64(nil), s.uPrev...)
	}
	return sn
}

// Restore rewinds (or fast-forwards) the stepper to a snapshot taken
// from an identically configured run. Subsequent Advance calls produce
// the exact states the original run would have: a step depends only on
// the restored state, the excitation and the factorization, all of
// which are reproduced bit-for-bit.
func (s *Stepper) Restore(sn *Snapshot) error {
	if len(sn.X) != s.N {
		return fmt.Errorf("%w: snapshot state length %d != %d", ErrSize, len(sn.X), s.N)
	}
	if sn.HavePrev && len(sn.UPrev) != s.N {
		return fmt.Errorf("%w: snapshot excitation length %d != %d", ErrSize, len(sn.UPrev), s.N)
	}
	if sn.Step < 0 {
		return fmt.Errorf("transient: negative snapshot step %d", sn.Step)
	}
	copy(s.x, sn.X)
	s.t = sn.Time
	s.stepNo = sn.Step
	s.havePrev = sn.HavePrev
	if sn.HavePrev {
		copy(s.ensurePrev(), sn.UPrev)
	}
	return nil
}

// Init sets the initial state x(0) explicitly.
func (s *Stepper) Init(x0 []float64) error {
	if len(x0) != s.N {
		return fmt.Errorf("%w: x0 length %d != %d", ErrSize, len(x0), s.N)
	}
	copy(s.x, x0)
	s.t = 0
	s.stepNo = 0
	s.havePrev = false
	return nil
}

// InitDC sets x(0) to the DC operating point G·x = u(0). The solve uses
// conjugate gradients preconditioned with the already-available
// companion factor (G + scale·C), which differs from G only by the
// capacitive term and therefore converges in a handful of iterations at
// power-grid time constants; if CG stalls (extremely stiff steps), a
// dedicated factorization of G is performed instead.
func (s *Stepper) InitDC(u0 []float64) error {
	if len(u0) != s.N {
		return fmt.Errorf("%w: u0 length %d != %d", ErrSize, len(u0), s.N)
	}
	for i := range s.x {
		s.x[i] = 0
	}
	if _, err := s.cg.CG(s.g, s.x, u0, iterative.CGOptions{
		Tol: 1e-12, MaxIter: 200, M: s.pre,
	}); err != nil {
		fg, ferr := factor.CholAnalyzeSupernodal(s.g, s.sym.Perm, -1).Factorize(s.g, nil, 1)
		if ferr != nil {
			return fmt.Errorf("transient: DC solve: CG failed (%v) and factorization failed: %w", err, ferr)
		}
		fg.SolveTo(s.x, u0)
	}
	if !numguard.Finite(s.x) {
		return &numguard.Diagnosis{Stage: "transient-dc", Rung: s.Factorer(), Reason: "non-finite DC state"}
	}
	s.t = 0
	s.stepNo = 0
	s.havePrev = false
	if s.opts.Method == Trapezoidal {
		copy(s.ensurePrev(), u0)
		s.havePrev = true
	}
	return nil
}

func (s *Stepper) ensurePrev() []float64 {
	if s.uPrev == nil {
		s.uPrev = make([]float64, s.N)
	}
	return s.uPrev
}

// State returns the current solution vector (live storage; copy before
// mutating).
func (s *Stepper) State() []float64 { return s.x }

// Time returns the current simulation time.
func (s *Stepper) Time() float64 { return s.t }

// StepCount returns the number of completed steps.
func (s *Stepper) StepCount() int { return s.stepNo }

// Advance performs one time step using the excitation u evaluated at
// the *new* time t+h (backward Euler) or at both endpoints
// (trapezoidal; the previous endpoint's u is retained internally).
func (s *Stepper) Advance(uNew []float64) error {
	if len(uNew) != s.N {
		return fmt.Errorf("%w: u length %d != %d", ErrSize, len(uNew), s.N)
	}
	var stepStart time.Time
	if s.stepMS != nil {
		stepStart = time.Now()
	}
	h := s.opts.Step
	switch s.opts.Method {
	case BackwardEuler:
		// (G + C/h)·x⁺ = C/h·x + u(t+h)
		s.c.MulVec(s.cx, s.x)
		for i := range s.b {
			s.b[i] = s.cx[i]/h + uNew[i]
		}
	case Trapezoidal:
		// (G + 2C/h)·x⁺ = (2C/h − G)·x + u(t) + u(t+h)
		if !s.havePrev {
			return fmt.Errorf("transient: trapezoidal stepping requires InitDC or a prior Advance with the initial excitation; call SetPrevExcitation")
		}
		if s.gx == nil {
			s.gx = make([]float64, s.N)
		}
		s.c.MulVec(s.cx, s.x)
		s.g.MulVec(s.gx, s.x)
		for i := range s.b {
			s.b[i] = 2*s.cx[i]/h - s.gx[i] + s.uPrev[i] + uNew[i]
		}
	default:
		return fmt.Errorf("transient: unknown method %v", s.opts.Method)
	}
	s.solveTo(s.x, s.b)
	if err := s.guardState("transient", s.stepNo+1, s.b); err != nil {
		return err
	}
	if s.opts.Method == Trapezoidal {
		copy(s.ensurePrev(), uNew)
		s.havePrev = true
	}
	s.t += h
	s.stepNo++
	s.opts.Progress.Mark()
	if s.stepMS != nil {
		ms := float64(time.Since(stepStart)) / float64(time.Millisecond)
		s.stepMS.Observe(ms)
		s.stepMSMax.SetMax(ms)
		s.stepsTotal.Inc()
	}
	return nil
}

// SetPrevExcitation primes the trapezoidal history with u(t₀) when the
// initial state comes from Init rather than InitDC.
func (s *Stepper) SetPrevExcitation(u0 []float64) error {
	if len(u0) != s.N {
		return fmt.Errorf("%w: u0 length %d != %d", ErrSize, len(u0), s.N)
	}
	copy(s.ensurePrev(), u0)
	s.havePrev = true
	return nil
}

// Run executes a full transient: initial DC at t=0 from rhs(0), then
// opts.Steps steps, invoking visit after the initial condition and
// after every step with (step index, time, state). visit must not
// retain the state slice.
func Run(g, c *sparse.Matrix, rhs func(t float64, u []float64), opts Options, visit func(step int, t float64, x []float64)) error {
	st, err := NewStepper(g, c, opts)
	if err != nil {
		return err
	}
	return st.Run(rhs, visit)
}

// Run drives a fresh stepper through the transient its options
// describe, exactly as the package-level Run does; callers that build
// the stepper themselves keep it for its telemetry (Symbolic,
// Factorer) afterwards.
func (s *Stepper) Run(rhs func(t float64, u []float64), visit func(step int, t float64, x []float64)) error {
	opts := s.opts
	if err := cancel.Poll(opts.Ctx, "transient", 0); err != nil {
		return err
	}
	u := make([]float64, s.N)
	start := 1
	if opts.Resume != nil {
		if err := s.Restore(opts.Resume); err != nil {
			return err
		}
		start = opts.Resume.Step + 1
	} else {
		rhs(0, u)
		if err := s.InitDC(u); err != nil {
			return err
		}
		if visit != nil {
			visit(0, 0, s.State())
		}
	}
	for k := start; k <= opts.Steps; k++ {
		if err := cancel.Poll(opts.Ctx, "transient", k); err != nil {
			return err
		}
		t := float64(k) * opts.Step
		rhs(t, u)
		if err := s.Advance(u); err != nil {
			return err
		}
		if visit != nil {
			visit(k, t, s.State())
		}
	}
	return nil
}

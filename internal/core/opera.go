// Package core is OPERA — Orthogonal Polynomial Expansions for Response
// Analysis — the paper's primary contribution assembled from the
// substrates: it takes a power grid netlist, a process-variation model
// and an expansion order, runs the stochastic Galerkin transient, and
// returns the explicit chaos representation of every node voltage over
// time: means, variances, higher moments, probability densities and
// samples, plus the accuracy/runtime comparison against the Monte Carlo
// baseline that regenerates the paper's Table 1 and Figures 1–2.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"opera/internal/factor"
	"opera/internal/galerkin"
	"opera/internal/mna"
	"opera/internal/montecarlo"
	"opera/internal/netlist"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/pce"
	"opera/internal/poly"
	"opera/internal/sparse"
	"opera/internal/transient"
)

// Options configures an OPERA analysis.
type Options struct {
	// Order is the chaos expansion order p (paper: 2 or 3 suffices).
	Order int
	// Step and Steps define the fixed-step transient window.
	Step  float64
	Steps int
	// Variation holds the first-order sensitivities; zero value means
	// mna.DefaultSpec (the paper's Table 1 setup).
	Variation *mna.VariationSpec
	// Ordering selects the fill-reducing ordering of every
	// factorization the analysis runs (Galerkin, Monte Carlo, nominal);
	// the zero value is AMD.
	Ordering order.Method
	// TrackNodes lists nodes whose full chaos coefficients are retained
	// at every step (needed for PDFs and the distribution figures).
	TrackNodes []int
	// Families optionally overrides the per-dimension polynomial
	// families, one per variable of the system (default: Hermite in
	// every dimension, the paper's Gaussian case).
	Families []poly.Family
	// ForceCoupled and ForceLU are ablation switches (see galerkin).
	ForceCoupled bool
	ForceLU      bool
	// Workers caps the worker pools of the parallel hot loops (Monte
	// Carlo sampling, the eigenbasis recursion chunks, the coupled
	// Kronecker apply and preconditioner columns); 0 or negative means
	// GOMAXPROCS. Results are bit-identical for every
	// value.
	Workers int
	// Guard tunes the numerical-robustness layer (residual tolerance,
	// iterative-refinement caps, verification cadence). Zero value =
	// numguard defaults.
	Guard numguard.Config
	// Obs, when non-nil, receives the pipeline phase spans (stamp,
	// order, factor, transient, moments) and all solver metrics. Nil
	// disables instrumentation at zero cost.
	Obs *obs.Tracer
	// Progress, when non-nil, is marked at every step/sample/basis
	// boundary the solve loops pass; a stall watchdog can poll it to
	// tell a slow analysis from a hung one. Nil disables the marks.
	Progress *obs.Progress
	// Ctx, when non-nil, cancels the analysis cooperatively: the solve
	// loops poll it at step/sample/basis boundaries and return a
	// structured error wrapping cancel.ErrCanceled once it is canceled
	// or past its deadline. Nil disables cancellation.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Order == 0 {
		o.Order = 2
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Order < 1 {
		return fmt.Errorf("core: expansion order must be >= 1, got %d", o.Order)
	}
	if o.Step <= 0 || o.Steps < 1 {
		return fmt.Errorf("core: bad time stepping %g x %d", o.Step, o.Steps)
	}
	return nil
}

// chaosBasis returns the order-p basis over the system's K variables:
// opts.Families, or Hermite in every dimension.
func chaosBasis(sys *mna.System, opts Options) (*pce.Basis, error) {
	k := sys.Dims()
	if opts.Families == nil {
		return pce.NewHermiteBasis(k, opts.Order), nil
	}
	if len(opts.Families) != k {
		return nil, fmt.Errorf("core: need %d families, got %d", k, len(opts.Families))
	}
	return pce.NewBasis(opts.Families, opts.Order), nil
}

// Result is the output of an OPERA analysis.
type Result struct {
	N     int
	Steps int
	Basis *pce.Basis
	VDD   float64

	// Mean[s][i], Variance[s][i]: moments of node i's voltage at step s.
	Mean, Variance [][]float64

	// Tracked maps a tracked node to its per-step chaos expansions.
	Tracked map[int][]*pce.Expansion

	// Elapsed is the wall-clock analysis time; Galerkin carries solver
	// telemetry.
	Elapsed  time.Duration
	Galerkin galerkin.Result
}

// Analyze runs OPERA on a stamped MNA system of any variation model
// (the builders of package mna).
func Analyze(sys *mna.System, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sp := opts.Obs.Start("stamp", obs.Int("n", sys.N), obs.Int("order", opts.Order))
	basis, err := chaosBasis(sys, opts)
	if err != nil {
		sp.End()
		return nil, err
	}
	gsys, err := galerkin.From(sys, basis)
	sp.SetAttrs(obs.Int("basis", basis.Size()))
	sp.End()
	if err != nil {
		return nil, err
	}
	return analyze(gsys, sys.VDD, opts)
}

// AnalyzeNetlist stamps and analyzes a netlist in one call.
func AnalyzeNetlist(nl *netlist.Netlist, opts Options) (*Result, error) {
	spec := mna.DefaultSpec()
	if opts.Variation != nil {
		spec = *opts.Variation
	}
	sys, err := mna.Build(nl, spec)
	if err != nil {
		return nil, err
	}
	return Analyze(sys, opts)
}

// analyze drives the Galerkin solve and collects moments for any
// prepared galerkin.System (the general path and the §5.1 special case
// share it).
func analyze(gsys *galerkin.System, vdd float64, opts Options) (*Result, error) {
	basis := gsys.Basis
	n := gsys.N
	nsteps := opts.Steps + 1
	res := &Result{
		N:        n,
		Steps:    opts.Steps,
		Basis:    basis,
		VDD:      vdd,
		Mean:     alloc2(nsteps, n),
		Variance: alloc2(nsteps, n),
	}
	if len(opts.TrackNodes) > 0 {
		res.Tracked = make(map[int][]*pce.Expansion, len(opts.TrackNodes))
		for _, node := range opts.TrackNodes {
			if node < 0 || node >= n {
				return nil, fmt.Errorf("core: tracked node %d outside [0,%d)", node, n)
			}
			res.Tracked[node] = make([]*pce.Expansion, nsteps)
		}
	}
	start := time.Now()
	tr := opts.Obs
	// Moment extraction runs interleaved with the stepping loop, so its
	// time accumulates across visits and lands in the trace as one
	// completed "moments" span after the solve.
	var momentsDur time.Duration
	gres, err := galerkin.Solve(gsys, galerkin.Options{
		Step: opts.Step, Steps: opts.Steps,
		Ordering: opts.Ordering, ForceCoupled: opts.ForceCoupled,
		ForceLU: opts.ForceLU,
		Workers: opts.Workers, Guard: opts.Guard, Obs: opts.Obs,
		Progress: opts.Progress, Ctx: opts.Ctx,
	}, func(step int, _ float64, coeffs [][]float64) {
		visitStart := time.Now()
		B := len(coeffs)
		for i := 0; i < n; i++ {
			res.Mean[step][i] = coeffs[0][i]
			v := 0.0
			for m := 1; m < B; m++ {
				v += coeffs[m][i] * coeffs[m][i]
			}
			res.Variance[step][i] = v
		}
		for node, exps := range res.Tracked {
			c := make([]float64, B)
			for m := 0; m < B; m++ {
				c[m] = coeffs[m][node]
			}
			exps[step] = pce.FromCoeffs(basis, c)
		}
		momentsDur += time.Since(visitStart)
	})
	if err != nil {
		return nil, err
	}
	tr.Record("moments", momentsDur, obs.Int("steps", opts.Steps+1))
	res.Elapsed = time.Since(start)
	tr.Registry().Gauge("core.elapsed_ms").Set(float64(res.Elapsed) / float64(time.Millisecond))
	res.Galerkin = gres
	return res, nil
}

// MaxMeanDropNode returns the node and step with the largest mean
// voltage drop (VDD − mean), the natural "interesting node" for the
// distribution figures.
func (r *Result) MaxMeanDropNode() (node, step int) {
	worst := -1.0
	for s := range r.Mean {
		for i, v := range r.Mean[s] {
			if d := r.VDD - v; d > worst {
				worst = d
				node, step = i, s
			}
		}
	}
	return node, step
}

// MaxStd returns the largest node standard deviation over the window.
func (r *Result) MaxStd() float64 {
	worst := 0.0
	for _, row := range r.Variance {
		for _, v := range row {
			if v > worst {
				worst = v
			}
		}
	}
	return math.Sqrt(worst)
}

// NominalResult is the deterministic (no-variation) transient: the
// response and the companion factorization that produced it.
type NominalResult struct {
	// V[s][i] is node i's voltage at step s.
	V [][]float64
	// Symbolic is the stepper's companion analysis: the permutation,
	// fill and flop count the nominal transient actually factored.
	Symbolic *factor.SuperSymbolic
}

// Nominal runs the plain backward-Euler transient on Ga, Ca, ua,
// factoring the companion under opts.Ordering.
func Nominal(sys *mna.System, opts Options) (*NominalResult, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// G + C/h has the pattern of the stepper's companion.
	perm := order.Permute(opts.Ordering, sparse.Add(1, sys.Ga, 1, sys.Ca))
	st, err := transient.NewStepper(sys.Ga, sys.Ca, transient.Options{
		Step: opts.Step, Steps: opts.Steps, Method: transient.BackwardEuler,
		Perm: perm, Progress: opts.Progress, Ctx: opts.Ctx,
	})
	if err != nil {
		return nil, err
	}
	res := &NominalResult{V: alloc2(opts.Steps+1, sys.N), Symbolic: st.Symbolic()}
	ua := make([]float64, sys.N)
	err = st.Run(func(t float64, u []float64) {
		sys.RHS(t, ua, nil)
		copy(u, ua)
	}, func(step int, _ float64, x []float64) {
		copy(res.V[step], x)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// NominalRun computes the deterministic (no-variation) response µ0 used
// by the paper's ±3σ-vs-µ0 metric (Nominal's V).
func NominalRun(sys *mna.System, opts Options) ([][]float64, error) {
	res, err := Nominal(sys, opts)
	if err != nil {
		return nil, err
	}
	return res.V, nil
}

// RunMC executes the Monte Carlo baseline with matching time stepping.
func RunMC(sys *mna.System, opts Options, samples int, seed int64, trackNodes []int) (*montecarlo.Result, time.Duration, error) {
	opts = opts.withDefaults()
	start := time.Now()
	mc, err := montecarlo.Run(sys, montecarlo.Options{
		Samples: samples, Step: opts.Step, Steps: opts.Steps,
		Ordering: opts.Ordering, Seed: seed, TrackNodes: trackNodes, Workers: opts.Workers, Obs: opts.Obs,
		Progress: opts.Progress, Ctx: opts.Ctx,
	})
	return mc, time.Since(start), err
}

func alloc2(a, b int) [][]float64 {
	m := make([][]float64, a)
	for i := range m {
		m[i] = make([]float64, b)
	}
	return m
}

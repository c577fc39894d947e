package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/galerkin"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/pce"
	"opera/internal/poly"
	"opera/internal/randvar"
	"opera/internal/sparse"
)

// LeakageOptions configures the §5.1 special case: only the excitation
// is stochastic — the leakage component of the drain currents varies
// lognormally with per-region threshold-voltage variation — so the
// Galerkin system decouples into N+1 independent solves sharing one
// factorization (Eq. 27). By linearity the solver runs Regions+1 of
// them, one per region plus the mean, and scales each region's state
// into the blocks its multiplier weights.
type LeakageOptions struct {
	// Regions is the number of intra-die regions; every leakage source
	// in the netlist must carry a Region tag in [0, Regions).
	Regions int
	// SigmaLogI is the standard deviation of ln(I_leak): leakage varies
	// as exp(σ·ξ_r − σ²/2) per region r (unit mean), the lognormal model
	// of Ferzli–Najm that §5.1 references.
	SigmaLogI float64
	// Order is the chaos order for the lognormal RHS expansion.
	Order int
	Step  float64
	Steps int
	// TrackNodes retains full expansions at these nodes.
	TrackNodes []int
	// Ordering selects the fill-reducing ordering of the companion
	// factorization (decoupled OPERA and RunLeakageMC); the zero value
	// is AMD.
	Ordering order.Method
	// Workers caps the worker pool of the decoupled solver's recursion
	// chunks and of RunLeakageMC's sample chunks; 0 or negative means
	// GOMAXPROCS. Results are bit-identical for every value.
	Workers int
	// Obs, when non-nil, receives the pipeline phase spans and solver
	// metrics (see Options.Obs).
	Obs *obs.Tracer
	// Progress, when non-nil, is marked per step, in OPERA and in each
	// sample block of RunLeakageMC (see Options.Progress).
	Progress *obs.Progress
	// Ctx, when non-nil, cancels the analysis cooperatively (see
	// Options.Ctx).
	Ctx context.Context
}

// Validate checks the options.
func (o LeakageOptions) Validate() error {
	if o.Regions < 1 {
		return fmt.Errorf("core: leakage analysis needs >= 1 region, got %d", o.Regions)
	}
	if o.SigmaLogI <= 0 {
		return fmt.Errorf("core: sigma of log-leakage must be positive, got %g", o.SigmaLogI)
	}
	if o.Order < 1 {
		return fmt.Errorf("core: order must be >= 1, got %d", o.Order)
	}
	if o.Step <= 0 || o.Steps < 1 {
		return fmt.Errorf("core: bad time stepping %g x %d", o.Step, o.Steps)
	}
	return nil
}

// buildLeakageSystem stamps the netlist deterministically and builds the
// RHS-only Galerkin system with one Gaussian dimension per region.
func buildLeakageSystem(nl *netlist.Netlist, opts LeakageOptions) (*galerkin.System, *mna.System, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	leaks, err := leakageSources(nl, opts.Regions)
	if err != nil {
		return nil, nil, err
	}
	// Deterministic operator: zero sensitivities.
	sys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		return nil, nil, err
	}
	fams := make([]poly.Family, opts.Regions)
	for i := range fams {
		fams[i] = poly.Hermite{}
	}
	basis := pce.NewBasis(fams, opts.Order)
	// Source 0 is the mean block, with weight 1: the deterministic
	// excitation with every leakage current at its mean. Source 1+r is
	// region r's leakage, −Σ_{src∈r} i_src(t) at the sources' nodes,
	// weighted by the lognormal multiplier's chaos coefficients mult_r
	// (unit mean) apart from its mean. Those sit on the pure powers ξ_r^k
	// only, so no block draws on two regions, and every other block is
	// an exact +0 at all times.
	mu := -opts.SigmaLogI * opts.SigmaLogI / 2
	weights := make([][]float64, 1+opts.Regions)
	weights[0] = make([]float64, basis.Size())
	weights[0][0] = 1
	mean := make([]float64, opts.Regions) // mult_r[0]
	for r := 0; r < opts.Regions; r++ {
		w := basis.LognormalCoefficients(r, mu, opts.SigmaLogI)
		mean[r], w[0] = w[0], 0
		weights[1+r] = w
	}
	iv := make([]float64, len(leaks)) // leakage currents at the step's time
	sources := func(t float64, u [][]float64) {
		// Deterministic part: pads plus non-leakage sources. Remove the
		// leakage sources from it; they re-enter at their mean and
		// through their regions' sources. Each waveform is evaluated
		// once here and reused for every source.
		u0 := u[0]
		sys.RHS(t, u0, nil)
		for k, src := range leaks {
			iv[k] = src.Wave.At(t)
			u0[src.A] += iv[k]
		}
		for _, ur := range u[1:] {
			clear(ur)
		}
		for k, src := range leaks {
			u0[src.A] -= iv[k] * mean[src.Region]
			u[1+src.Region][src.A] -= iv[k]
		}
	}
	ident := basis.CouplingIdentity()
	gsys := &galerkin.System{
		N:       sys.N,
		Basis:   basis,
		GTerms:  []galerkin.Term{{Coupling: ident, A: sys.Ga}},
		CTerms:  []galerkin.Term{{Coupling: ident, A: sys.Ca}},
		Sources: sources,
		Weights: weights,
	}
	return gsys, sys, nil
}

// analyzeOptions carries every option analyze takes.
func (o LeakageOptions) analyzeOptions() Options {
	return Options{
		Order: o.Order, Step: o.Step, Steps: o.Steps,
		Ordering:   o.Ordering,
		TrackNodes: o.TrackNodes, Workers: o.Workers, Obs: o.Obs,
		Progress: o.Progress, Ctx: o.Ctx,
	}
}

// AnalyzeLeakage runs the §5.1 special case with OPERA. The returned
// result's Galerkin telemetry reports Decoupled = true: the solver took
// the Eq. 27 fast path automatically.
func AnalyzeLeakage(nl *netlist.Netlist, opts LeakageOptions) (*Result, error) {
	gsys, sys, err := buildLeakageSystem(nl, opts)
	if err != nil {
		return nil, err
	}
	return analyze(gsys, sys.VDD, opts.analyzeOptions())
}

// LeakageMCResult carries the Monte Carlo reference for the special
// case.
type LeakageMCResult struct {
	Mean, Variance [][]float64
	Elapsed        time.Duration
	Samples        int
	// FactorNNZ is nnz(L) of the companion factor every sample shares.
	FactorNNZ int
}

// leakMCBlock caps how many samples RunLeakageMC steps together, which
// bounds its per-sample state to leakMCBlock vectors of length n.
const leakMCBlock = 64

// leakageSources lists the netlist's leakage current sources in netlist
// order, rejecting any whose region tag is outside [0, regions). Both
// the OPERA and the Monte Carlo entry points check their input here.
func leakageSources(nl *netlist.Netlist, regions int) ([]netlist.CurrentSource, error) {
	var leaks []netlist.CurrentSource
	for _, src := range nl.Sources {
		if !src.Leakage {
			continue
		}
		if src.Region < 0 || src.Region >= regions {
			return nil, fmt.Errorf("core: leakage source %q region %d outside [0,%d)",
				src.Name, src.Region, regions)
		}
		leaks = append(leaks, src)
	}
	return leaks, nil
}

// RunLeakageMC samples the per-region lognormal leakage multipliers and
// runs deterministic transients. Because the operator is fixed, one
// companion factorization serves every sample — the strongest version
// of the baseline — and the samples are the columns of batched solves:
// blocks of up to leakMCBlock samples step together, each step solving
// one contiguous chunk of samples per worker with one SuperFactor
// SolveMany. Multipliers are drawn up front in sample order from one
// stream and every accumulator takes its samples in order, so the
// moments are bit-identical for every worker count and equal to
// stepping the samples one at a time.
func RunLeakageMC(nl *netlist.Netlist, opts LeakageOptions, samples int, seed int64) (*LeakageMCResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: need >= 1 sample")
	}
	leaks, err := leakageSources(nl, opts.Regions)
	if err != nil {
		return nil, err
	}
	sys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		return nil, err
	}
	n := sys.N
	start := time.Now()
	companion := sparse.Add(1, sys.Ga, 1/opts.Step, sys.Ca)
	// Ga's pattern is contained in the companion's, so the companion's
	// analysis serves the DC factor too.
	perm := order.Permute(opts.Ordering, companion)
	sym := factor.CholAnalyzeSupernodal(companion, perm, -1)
	comp, err := sym.Factorize(companion, nil, 1)
	if err != nil {
		return nil, fmt.Errorf("core: leakage MC companion: %w", err)
	}
	gfac, err := sym.Factorize(sys.Ga, nil, 1)
	if err != nil {
		return nil, fmt.Errorf("core: leakage MC DC: %w", err)
	}
	rng := randvar.NewStream(seed, 0)
	sigma := opts.SigmaLogI
	mult := alloc2(samples, opts.Regions)
	for k := range mult {
		for r := range mult[k] {
			mult[k][r] = math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
		}
	}
	nsteps := opts.Steps + 1
	acc := make([][]randvar.Running, nsteps)
	for s := range acc {
		acc[s] = make([]randvar.Running, n)
	}
	block := min(samples, leakMCBlock)
	workers := min(parallel.Workers(opts.Workers), block)
	// x[j] is sample j's state; each step forms the sample's right-hand
	// side in it and solves in place (SolveMany allows x[c] == b[c]).
	x := alloc2(block, n)
	cx := alloc2(workers, n)
	ua := make([]float64, n)
	iv := make([]float64, len(leaks))
	var lo, step int // the block's first sample and the step being solved
	solveChunk := func(worker, a, b int) error {
		for j := a; j < b; j++ {
			xj, m := x[j], mult[lo+j]
			if step > 0 {
				sys.Ca.MulVec(cx[worker], xj)
			}
			copy(xj, ua)
			for k, src := range leaks {
				xj[src.A] += iv[k]                 // remove nominal draw
				xj[src.A] -= iv[k] * m[src.Region] // apply lognormal draw
			}
			if step > 0 {
				for i := range xj {
					xj[i] = cx[worker][i]/opts.Step + xj[i]
				}
			}
		}
		if step == 0 {
			gfac.SolveMany(x[a:b], x[a:b])
		} else {
			comp.SolveMany(x[a:b], x[a:b])
		}
		return nil
	}
	for lo = 0; lo < samples; lo += block {
		k := min(block, samples-lo)
		for step = 0; step <= opts.Steps; step++ {
			if err := cancel.Poll(opts.Ctx, "leakage-mc", lo); err != nil {
				return nil, err
			}
			t := float64(step) * opts.Step
			sys.RHS(t, ua, nil)
			for i, src := range leaks {
				iv[i] = src.Wave.At(t)
			}
			if err := parallel.Split(workers, k, solveChunk); err != nil {
				return nil, err
			}
			for j := 0; j < k; j++ {
				for i, v := range x[j] {
					acc[step][i].Push(v)
				}
			}
			opts.Progress.Mark()
		}
	}
	res := &LeakageMCResult{
		Mean:      alloc2(nsteps, n),
		Variance:  alloc2(nsteps, n),
		Samples:   samples,
		FactorNNZ: sym.LNNZ(),
	}
	for s := 0; s < nsteps; s++ {
		for i := 0; i < n; i++ {
			res.Mean[s][i] = acc[s][i].Mean()
			res.Variance[s][i] = acc[s][i].Variance()
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// AnalyzeLeakageForceCoupled runs the §5.1 system through the full
// augmented Galerkin solve instead of the decoupled recursion — the
// ablation reference quantifying what Eq. 27 saves.
func AnalyzeLeakageForceCoupled(nl *netlist.Netlist, opts LeakageOptions) (*Result, error) {
	gsys, sys, err := buildLeakageSystem(nl, opts)
	if err != nil {
		return nil, err
	}
	o := opts.analyzeOptions()
	o.ForceCoupled = true
	return analyze(gsys, sys.VDD, o)
}

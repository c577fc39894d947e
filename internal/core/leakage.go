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
	"opera/internal/pce"
	"opera/internal/poly"
	"opera/internal/randvar"
	"opera/internal/sparse"
)

// LeakageOptions configures the §5.1 special case: only the excitation
// is stochastic — the leakage component of the drain currents varies
// lognormally with per-region threshold-voltage variation — so the
// Galerkin system decouples into N+1 independent solves sharing one
// factorization (Eq. 27).
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
	// Workers caps the decoupled solver's per-basis worker pool; 0 or
	// negative means GOMAXPROCS. Results are bit-identical for every
	// value.
	Workers int
	// Obs, when non-nil, receives the pipeline phase spans and solver
	// metrics (see Options.Obs).
	Obs *obs.Tracer
	// Progress, when non-nil, is marked per sample and per step (see
	// Options.Progress).
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
	// Deterministic operator: zero sensitivities.
	sys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		return nil, nil, err
	}
	for _, src := range nl.Sources {
		if src.Leakage && (src.Region < 0 || src.Region >= opts.Regions) {
			return nil, nil, fmt.Errorf("core: leakage source %q region %d outside [0,%d)",
				src.Name, src.Region, opts.Regions)
		}
	}
	fams := make([]poly.Family, opts.Regions)
	for i := range fams {
		fams[i] = poly.Hermite{}
	}
	basis := pce.NewBasis(fams, opts.Order)
	// Lognormal multiplier coefficients per region (unit mean).
	mu := -opts.SigmaLogI * opts.SigmaLogI / 2
	mult := make([][]float64, opts.Regions)
	for r := range mult {
		mult[r] = basis.LognormalCoefficients(r, mu, opts.SigmaLogI)
	}
	n := sys.N
	ident := basis.CouplingIdentity()
	var leaks []netlist.CurrentSource
	for _, src := range nl.Sources {
		if src.Leakage {
			leaks = append(leaks, src)
		}
	}
	ua := make([]float64, n)
	iv := make([]float64, len(leaks)) // leakage currents at the step's time
	rhs := func(t float64, out [][]float64) {
		// Deterministic part: pads plus non-leakage sources.
		sys.RHS(t, ua, nil, nil)
		// Remove the leakage sources from the deterministic vector; they
		// re-enter through their chaos coefficients. Each waveform is
		// evaluated once here and reused for every basis function.
		for k, src := range leaks {
			iv[k] = src.Wave.At(t)
			ua[src.A] += iv[k]
		}
		for m := range out {
			dst := out[m]
			if m == 0 {
				copy(dst, ua)
			} else {
				clear(dst)
			}
			for k, src := range leaks {
				dst[src.A] -= iv[k] * mult[src.Region][m]
			}
		}
	}
	gsys := &galerkin.System{
		N:      n,
		Basis:  basis,
		GTerms: []galerkin.Term{{Coupling: ident, A: sys.Ga}},
		CTerms: []galerkin.Term{{Coupling: ident, A: sys.Ca}},
		RHS:    rhs,
	}
	return gsys, sys, nil
}

// AnalyzeLeakage runs the §5.1 special case with OPERA. The returned
// result's Galerkin telemetry reports Decoupled = true: the solver took
// the Eq. 27 fast path automatically.
func AnalyzeLeakage(nl *netlist.Netlist, opts LeakageOptions) (*Result, error) {
	gsys, sys, err := buildLeakageSystem(nl, opts)
	if err != nil {
		return nil, err
	}
	return analyze(gsys, sys.VDD, Options{
		Order: opts.Order, Step: opts.Step, Steps: opts.Steps,
		Ordering:   opts.Ordering,
		TrackNodes: opts.TrackNodes, Workers: opts.Workers, Obs: opts.Obs,
		Progress: opts.Progress, Ctx: opts.Ctx,
	})
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

// RunLeakageMC samples the per-region lognormal leakage multipliers and
// runs deterministic transients. Because the operator is fixed, one
// companion factorization serves every sample — the strongest version
// of the baseline.
func RunLeakageMC(nl *netlist.Netlist, opts LeakageOptions, samples int, seed int64) (*LeakageMCResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: need >= 1 sample")
	}
	sys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		return nil, err
	}
	n := sys.N
	start := time.Now()
	companion := sparse.Add(1, sys.Ga, 1/opts.Step, sys.Ca)
	// Ga's pattern is contained in the companion's, so the companion
	// permutation serves the DC factor too.
	perm := order.Permute(opts.Ordering, companion)
	sym := factor.Analyze(companion, perm, factor.KernelSupernodal)
	comp, err := sym.Refactorize(companion, nil)
	if err != nil {
		return nil, fmt.Errorf("core: leakage MC companion: %w", err)
	}
	gfac, err := factor.CholeskyKernel(sys.Ga, perm, factor.KernelSupernodal)
	if err != nil {
		return nil, fmt.Errorf("core: leakage MC DC: %w", err)
	}
	rng := randvar.NewStream(seed, 0)
	nsteps := opts.Steps + 1
	acc := make([][]randvar.Running, nsteps)
	for s := range acc {
		acc[s] = make([]randvar.Running, n)
	}
	ua := make([]float64, n)
	u := make([]float64, n)
	x := make([]float64, n)
	cx := make([]float64, n)
	b := make([]float64, n)
	xi := make([]float64, opts.Regions)
	multiplier := make([]float64, opts.Regions)
	sigma := opts.SigmaLogI
	rhsAt := func(t float64) {
		sys.RHS(t, ua, nil, nil)
		copy(u, ua)
		for _, src := range nl.Sources {
			if !src.Leakage {
				continue
			}
			iv := src.Wave.At(t)
			u[src.A] += iv                          // remove nominal draw
			u[src.A] -= iv * multiplier[src.Region] // apply lognormal draw
		}
	}
	for k := 0; k < samples; k++ {
		if err := cancel.Poll(opts.Ctx, "leakage-mc", k); err != nil {
			return nil, err
		}
		opts.Progress.Mark()
		for r := range xi {
			xi[r] = rng.NormFloat64()
			multiplier[r] = math.Exp(sigma*xi[r] - sigma*sigma/2)
		}
		rhsAt(0)
		gfac.SolveTo(x, u)
		for i, v := range x {
			acc[0][i].Push(v)
		}
		for s := 1; s <= opts.Steps; s++ {
			rhsAt(float64(s) * opts.Step)
			sys.Ca.MulVec(cx, x)
			for i := range b {
				b[i] = cx[i]/opts.Step + u[i]
			}
			comp.SolveTo(x, b)
			for i, v := range x {
				acc[s][i].Push(v)
			}
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
	return analyze(gsys, sys.VDD, Options{
		Order: opts.Order, Step: opts.Step, Steps: opts.Steps,
		TrackNodes: opts.TrackNodes, ForceCoupled: true, Workers: opts.Workers, Obs: opts.Obs,
		Progress: opts.Progress,
	})
}

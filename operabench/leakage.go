package main

import (
	"math"
	"runtime"
	"time"

	"opera/internal/core"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/obs"
)

// runLeakage is the §5.1 special case: lognormal leakage on four regions,
// order 3, through the decoupled Eq. 27 path (one n-sized factorization,
// 35 triangular solves per step), with a short Monte Carlo baseline.
func runLeakage(p *plan, seconds float64, r *report) error {
	nl, _, err := buildInputs(p.LeakageGrid, func(nl *netlist.Netlist) (*mna.System, error) {
		return mna.Build(nl, mna.VariationSpec{})
	}, r)
	if err != nil {
		return err
	}
	opts := core.LeakageOptions{
		Regions: leakRegions, SigmaLogI: leakSigma, Order: leakOrder,
		Step: table1Step, Steps: leakSteps, Workers: 2,
	}
	analyze := func(o core.LeakageOptions) (*core.Result, time.Duration, error) {
		var res *core.Result
		d, err := timeIt(func() (err error) { res, err = core.AnalyzeLeakage(nl, o); return })
		r.op("core.AnalyzeLeakage", err)
		return res, d, err
	}

	var op *core.Result
	if !r.trace {
		// OPERA solves alternate with Monte Carlo baselines, at least
		// leakPasses of each.
		var operaT, mcT []float64
		start := time.Now()
		for pass := 0; pass < leakPasses || time.Since(start).Seconds() < seconds; pass++ {
			res, d, err := analyze(opts)
			if err != nil {
				return err
			}
			op = res
			operaT = append(operaT, d.Seconds())
			d, err = timeIt(func() error {
				_, err := core.RunLeakageMC(nl, opts, leakMCSamples, p.MCSeed)
				return err
			})
			r.op("core.RunLeakageMC", err)
			if err != nil {
				return err
			}
			mcT = append(mcT, d.Seconds())
		}
		r.setLibraryJobs(operaT)
		r.timing("mc_s", mcT)
	} else {
		alloc0, gc0 := runtimeTotals()
		op, err = traceOpera(r, func(tr *obs.Tracer) (*core.Result, time.Duration, error) {
			o := opts
			o.Obs = tr
			return analyze(o)
		})
		if err != nil {
			return err
		}
		r.runtimeDelta(alloc0, gc0)
	}
	return checkLeakage(nl, opts, op, r)
}

// checkLeakage checks the decoupled path and the analytic truncation
// property: for lognormal multipliers the order-k variance increment is
// the series term σ^{2k}/k!, so the increments 1→2 and 2→3 of the total
// variance stand in the ratio σ²/3.
func checkLeakage(nl *netlist.Netlist, opts core.LeakageOptions, op *core.Result, r *report) error {
	r.check("decoupled path", op.Galerkin.Decoupled && op.Basis.Size() == leakBasis,
		"decoupled=%v basis=%d (want %d)", op.Galerkin.Decoupled, op.Basis.Size(), leakBasis)
	checkGuard(op, r)
	total := func(res *core.Result) float64 {
		s := 0.0
		for _, v := range res.Variance[opts.Steps] {
			s += v
		}
		return s
	}
	var v [3]float64
	v[2] = total(op)
	for order := 1; order <= 2; order++ {
		o := opts
		o.Order = order
		runtime.GC() // as timeIt does, so the check does not raise the peak RSS
		res, err := core.AnalyzeLeakage(nl, o)
		r.op("core.AnalyzeLeakage", err)
		if err != nil {
			return err
		}
		v[order-1] = total(res)
	}
	want := opts.SigmaLogI * opts.SigmaLogI / 3
	ratio := (v[2] - v[1]) / (v[1] - v[0])
	r.check("variance increments", math.Abs(ratio-want) <= 1e-6*want,
		"ratio %.10g, want sigma^2/3 = %.10g", ratio, want)
	return nil
}

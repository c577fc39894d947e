package main

import (
	"runtime"
	"time"

	"opera/internal/core"
	"opera/internal/mna"
	"opera/internal/montecarlo"
	"opera/internal/netlist"
	"opera/internal/obs"
)

// Output-check thresholds of the table1 workload.
const (
	maxMeanErrPct  = 0.1
	maxSigmaErrPct = 10.0
)

// runTable1 is the paper's Table 1 experiment at one scaled size: OPERA
// order 2 on the coupled path, then 1000-sample Monte Carlo, compared.
func runTable1(p *plan, seconds float64, r *report) error {
	_, sys, err := buildInputs(p.Table1Grid, func(nl *netlist.Netlist) (*mna.System, error) {
		return mna.Build(nl, mna.DefaultSpec())
	}, r)
	if err != nil {
		return err
	}
	opts := core.Options{Order: table1Order, Step: table1Step, Steps: table1Steps, Workers: 2}
	analyze := func(o core.Options) (*core.Result, time.Duration, error) {
		var res *core.Result
		d, err := timeIt(func() (err error) { res, err = core.Analyze(sys, o); return })
		r.op("core.Analyze", err)
		return res, d, err
	}
	runMC := func(o core.Options, batch int) (*montecarlo.Result, time.Duration, error) {
		var mc *montecarlo.Result
		d, err := timeIt(func() (err error) {
			mc, _, err = core.RunMC(sys, o, table1Batch, p.MCSeed+int64(batch), nil)
			return
		})
		r.op("core.RunMC", err)
		return mc, d, err
	}

	// The 1000-sample reference runs as twenty 50-sample batches on seeds
	// derived from the workload seed, alternating with OPERA solves, so
	// both timings are many short calls spread over the whole run. A
	// batch takes about half as long as a solve, which leaves most of the
	// run to opera_s, the noisier of the two.
	var op *core.Result
	var batches []*montecarlo.Result
	if !r.trace {
		var operaT, mcT []float64
		start := time.Now()
		for i := 0; i < table1Batches || time.Since(start).Seconds() < seconds; i++ {
			res, d, err := analyze(opts)
			if err != nil {
				return err
			}
			op = res
			operaT = append(operaT, d.Seconds())
			mc, d, err := runMC(opts, i%table1Batches)
			if err != nil {
				return err
			}
			if i < table1Batches {
				batches = append(batches, mc)
			}
			mcT = append(mcT, d.Seconds())
		}
		r.setLibraryJobs(operaT)
		r.timing("mc_s", mcT)
		r.derive("speedup_vs_mc = %d x mc_s / opera_s = %.4g (not gated: a faster Monte Carlo would read as a regression)",
			table1Batches, float64(table1Batches)*median(mcT)/median(operaT))
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
		for i := 0; i < table1Batches; i++ {
			var mc *montecarlo.Result
			if i == 0 {
				mc, err = traceMC(r, func(o core.Options) (*montecarlo.Result, time.Duration, error) { return runMC(o, 0) }, opts)
			} else {
				mc, _, err = runMC(opts, i)
			}
			if err != nil {
				return err
			}
			batches = append(batches, mc)
		}
		r.runtimeDelta(alloc0, gc0)
	}
	return checkTable1(sys, opts, op, poolMC(batches), r)
}

// traceMC runs one traced Monte Carlo reference and reports its
// per-sample and refactorization metrics.
func traceMC(r *report, runMC func(core.Options) (*montecarlo.Result, time.Duration, error), opts core.Options) (*montecarlo.Result, error) {
	tr := obs.New("montecarlo")
	reg := obs.NewRegistry()
	unhook := installLayerMetrics(reg)
	opts.Obs = tr
	mc, _, err := runMC(opts)
	unhook()
	if err != nil {
		return nil, err
	}
	tr.Finish()
	d := tr.Dump()
	r.spans = append(r.spans, d)
	m := d.Metrics
	samples := mergedHist(m, "montecarlo.sample_ms")
	r.set("montecarlo.sample_ms_p50", samples.Quantile(0.50), int(samples.Count))
	r.set("montecarlo.sample_ms_p99", samples.Quantile(0.99), int(samples.Count))
	r.set("montecarlo.samples", float64(m.Counters["montecarlo.samples_total"]), 1)
	fm := reg.Snapshot()
	refactor := fm.Histograms["factor.refactor_ms"]
	r.set("factor.refactor_s", refactor.Sum/1000, int(refactor.Count))
	r.set("factor.factorizations", float64(fm.Counters["factor.factorizations_total"]), 1)
	return mc, nil
}

// poolMC merges equal-sized Monte Carlo batches into one result: the
// pooled mean, and the pooled population variance (each batch's
// variance plus its mean's squared offset from the pooled mean,
// averaged over the batches).
func poolMC(batches []*montecarlo.Result) *montecarlo.Result {
	first := batches[0]
	out := &montecarlo.Result{N: first.N, Steps: first.Steps}
	k := float64(len(batches))
	for s := range first.Mean {
		mean := make([]float64, first.N)
		vari := make([]float64, first.N)
		for _, b := range batches {
			for i, m := range b.Mean[s] {
				mean[i] += m / k
			}
		}
		for _, b := range batches {
			for i, m := range b.Mean[s] {
				d := m - mean[i]
				vari[i] += (b.Variance[s][i] + d*d) / k
			}
		}
		out.Mean = append(out.Mean, mean)
		out.Variance = append(out.Variance, vari)
	}
	for _, b := range batches {
		out.SamplesRun += b.SamplesRun
	}
	return out
}

// checkTable1 compares OPERA against the Monte Carlo reference.
func checkTable1(sys *mna.System, opts core.Options, op *core.Result, mc *montecarlo.Result, r *report) error {
	r.check("coupled path", !op.Galerkin.Decoupled, "rung %s, augmented n %d", op.Galerkin.Factorer, op.Galerkin.AugmentedN)
	checkGuard(op, r)
	runtime.GC() // as timeIt does, so the check does not raise the peak RSS
	nominal, err := core.NominalRun(sys, opts)
	r.op("core.NominalRun", err)
	if err != nil {
		return err
	}
	acc, err := core.CompareWithMC(op, mc, nominal)
	r.op("core.CompareWithMC", err)
	if err != nil {
		return err
	}
	r.check("mean error", acc.AvgErrMeanPct <= maxMeanErrPct, "%.4g%% (limit %g%%)", acc.AvgErrMeanPct, maxMeanErrPct)
	r.check("sigma error", acc.AvgErrStdPct <= maxSigmaErrPct, "%.4g%% (limit %g%%)", acc.AvgErrStdPct, maxSigmaErrPct)
	if r.trace {
		r.set("accuracy.mean_err_pct", acc.AvgErrMeanPct, 1)
		r.set("accuracy.sigma_err_pct", acc.AvgErrStdPct, 1)
	} else {
		r.derive("mean_err_pct = %.6g %%, sigma_err_pct = %.6g %% (n=1, OPERA vs %d-sample MC; not gated: sampling noise sets them)",
			acc.AvgErrMeanPct, acc.AvgErrStdPct, table1Batch*table1Batches)
	}
	return nil
}

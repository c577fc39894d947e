package main

import (
	"fmt"
	"time"

	"opera/internal/core"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/numguard"
	"opera/internal/obs"
)

// Helpers shared by the two library workloads, table1 and leakage, which
// call the solver packages in-process.

// setupReps is how many times a library workload builds its inputs; the
// median is setup_s.
const setupReps = 9

// buildInputs times grid.Build and the stamp function setupReps times and
// returns the last netlist and stamped system.
func buildInputs(spec grid.Spec, stamp func(*netlist.Netlist) (*mna.System, error), r *report) (*netlist.Netlist, *mna.System, error) {
	var nl *netlist.Netlist
	var sys *mna.System
	var gridT, stampT, total []float64
	for i := 0; i < setupReps; i++ {
		dg, err := timeIt(func() (err error) { nl, err = grid.Build(spec); return })
		if err != nil {
			return nil, nil, fmt.Errorf("grid.Build: %w", err)
		}
		ds, err := timeIt(func() (err error) { sys, err = stamp(nl); return })
		if err != nil {
			return nil, nil, fmt.Errorf("mna.Build: %w", err)
		}
		gridT = append(gridT, dg.Seconds())
		stampT = append(stampT, ds.Seconds())
		total = append(total, (dg + ds).Seconds())
	}
	if r.trace {
		r.set("grid.build_s", median(gridT), setupReps)
		r.set("mna.stamp_s", median(stampT), setupReps)
	} else {
		r.timing("setup_s", total)
	}
	return nl, sys, nil
}

// setLibraryJobs reports the OPERA and job metrics of a library
// workload. A job there is one OPERA analysis, so job_p50_ms and
// jobs_per_s restate opera_s; they exist because every workload prints
// the same metric set. jobs_per_s is the rate at the median analysis
// time, not at the mean, which a stretch of slow host time drags along.
func (r *report) setLibraryJobs(operaT []float64) {
	r.timing("opera_s", operaT)
	r.set("job_p50_ms", 1000*median(operaT), len(operaT))
	r.set("jobs_per_s", 1/median(operaT), len(operaT))
}

// phaseMetrics maps the solver's phase spans to their per-layer metrics.
var phaseMetrics = []struct{ span, metric string }{
	{"stamp", "galerkin.stamp_s"},
	{"galerkin.assemble", "galerkin.assemble_s"},
	{"order", "order.order_s"},
	{"factor", "factor.factor_s"},
	{"transient", "transient.transient_s"},
	{"moments", "core.moments_s"},
}

// traceOpera alternates untraced and traced OPERA analyses. The traced
// ones' spans and counters give the per-layer split of one analysis;
// the untraced ones are the baseline of the tracing overhead. analyze
// runs one analysis with the given tracer (nil: tracing off).
func traceOpera(r *report, analyze func(*obs.Tracer) (*core.Result, time.Duration, error)) (*core.Result, error) {
	const pairs = 3
	var op *core.Result
	var plain, traced []float64
	phases := map[string][]float64{}
	var last *obs.Dump
	var layer obs.MetricsSnapshot
	for i := 0; i < pairs; i++ {
		_, d, err := analyze(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, d.Seconds())
		tr := obs.New("opera")
		reg := obs.NewRegistry()
		unhook := installLayerMetrics(reg)
		res, d, err := analyze(tr)
		unhook()
		if err != nil {
			return nil, err
		}
		tr.Finish()
		op, last, layer = res, tr.Dump(), reg.Snapshot()
		r.spans = append(r.spans, last)
		traced = append(traced, d.Seconds())
		self := selfTimesMS(last)
		cover := 0.0
		for _, pm := range phaseMetrics {
			phases[pm.metric] = append(phases[pm.metric], self[pm.span]/1000)
			cover += self[pm.span] / 1000
		}
		phases["cover"] = append(phases["cover"], 100*cover/d.Seconds())
	}
	for _, pm := range phaseMetrics {
		r.set(pm.metric, median(phases[pm.metric]), pairs)
	}
	r.set("core.phase_cover_pct", median(phases["cover"]), pairs)
	r.set("trace.overhead_pct", 100*(median(traced)-median(plain))/median(plain), 2*pairs)
	r.setSolverCounters(last.Metrics, layer)
	r.set("factor.nnz", float64(op.Galerkin.FactorNNZ), 1)
	return op, nil
}

// setSolverCounters reports the counts one traced OPERA analysis left in
// its tracer's registry m and in the factor/order/sparse hooks' registry.
func (r *report) setSolverCounters(m, layer obs.MetricsSnapshot) {
	r.set("galerkin.step_ms_p50", m.Histograms["galerkin.step_ms"].Quantile(0.5), int(m.Histograms["galerkin.step_ms"].Count))
	solve := mergedHist(m, "galerkin.solve_ms")
	r.set("galerkin.solve_ms_p50", solve.Quantile(0.5), int(solve.Count))
	r.set("galerkin.cg_iterations", float64(m.Counters["galerkin.cg_iterations_total"]), 1)
	r.set("numguard.solves_verified", float64(m.Counters["numguard.solves_verified_total"]), 1)
	r.set("numguard.escalations", float64(m.Counters["numguard.ladder_escalations_total"]), 1)
	r.set("numguard.refinement_sweeps", float64(m.Counters["numguard.refinement_sweeps_total"]), 1)
	r.set("factor.flops", float64(layer.Counters["factor.flops_total"]), 1)
	r.set("sparse.matvec_flops", float64(layer.Counters["sparse.matvec_flops_total"]), 1)
}

// checkGuard checks that every verified solve of an analysis met the
// numguard residual tolerance without an unhealthy event.
func checkGuard(res *core.Result, r *report) {
	g := res.Galerkin.Guard().Snapshot()
	tol := numguard.Config{}.WithDefaults().ResidualTol
	r.check("numguard", g.Verified > 0 && g.MaxResidual <= tol && g.Healthy(),
		"%d verified solves, max residual %.3g (tolerance %.0e), healthy=%v", g.Verified, g.MaxResidual, tol, g.Healthy())
}

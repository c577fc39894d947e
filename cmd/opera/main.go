// Command opera runs the stochastic power-grid analysis of the paper on
// a netlist: it computes the chaos expansion of every node voltage over
// a fixed-step transient window and reports the moments, the worst-drop
// node's statistics, and (optionally) the full distribution at selected
// nodes.
//
// Usage:
//
//	opera -netlist grid.sp -order 2 -step 1e-10 -steps 20
//	opera -nodes 20000 -seed 3 -order 3 -track 125 -csv out.csv
//
// With -netlist absent, a synthetic grid of -nodes nodes is generated.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"opera/internal/core"
	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/report"
	"opera/internal/service"
	"opera/internal/sparse"
)

func main() {
	var (
		netPath  = flag.String("netlist", "", "input netlist (OPERA text format); empty = generate")
		nodes    = flag.Int("nodes", 10000, "node count when generating")
		seed     = flag.Int64("seed", 1, "generator / sampling seed")
		chaosOrd = flag.Int("order", 2, "chaos expansion order p")
		step     = flag.Float64("step", 1e-10, "time step (s)")
		steps    = flag.Int("steps", 20, "number of time steps")
		ordering = flag.String("ordering", "amd", "fill-reducing ordering of every factorization: amd, nd, md, rcm or natural")
		track    = flag.String("track", "", "comma-separated node ids to report distributions for")
		csvPath  = flag.String("csv", "", "write per-node moments at the final step as CSV")
		mcCheck  = flag.Int("mc", 0, "also run Monte Carlo with this many samples and report accuracy")
		leakage  = flag.Bool("leakage", false, "run the §5.1 special case: lognormal per-region leakage only")
		sigmaI   = flag.Float64("sigmai", 0.6, "sigma of ln(I_leak) for -leakage")
		regions  = flag.Int("regions", 4, "intra-die region count for -leakage")
		adaptive = flag.Bool("adaptive", false, "escalate the expansion order until the variance converges")
		trace    = flag.Bool("trace", false, "print the per-phase trace and metrics table after the run")
		traceOut = flag.String("trace-out", "", "write the trace + metrics as JSON to this file")
		pprof    = flag.String("pprof-addr", "", "serve net/http/pprof, expvar and live trace/metrics on this address (e.g. localhost:6060)")
		workers  = flag.Int("workers", 0, "worker pool size for the parallel hot loops; 0 = GOMAXPROCS (results are identical for any value)")
		remote   = flag.String("remote", "", "submit to a running operad at this address instead of solving locally")
		priority = flag.String("priority", "interactive", "remote job priority: interactive or batch")
		timeout  = flag.Duration("timeout", 0, "remote job deadline; 0 = server default")
		traceID  = flag.String("trace-id", "", "remote request trace ID (32 hex chars); empty = server mints one")
		showTr   = flag.Bool("show-trace", false, "after a remote job completes, fetch and print its stitched cross-shard trace waterfall")
		logLevel = flag.String("log-level", "warn", "remote client structured-log level: debug|info|warn|error|off")

		sweepSeeds   = flag.String("sweep-seeds", "", "remote bulk sweep: comma-separated seed axis (e.g. 1,2,3)")
		sweepCorners = flag.String("sweep-corners", "", "remote bulk sweep: corner axis, name or name:kg:kcl:kil per entry (e.g. tt,ss:0.1:0.05:0.05)")
		sweepLoads   = flag.String("sweep-loads", "", "remote bulk sweep: load axis, name or name:peakdropfrac per entry (e.g. nom,hot:0.15)")
		sweepOut     = flag.String("sweep-out", "", "append sweep result lines (JSON lines) to this file; an interrupted sweep resumes from it")
	)
	flag.Parse()
	method, err := order.ParseMethod(*ordering)
	if err != nil {
		fatal("opera: %v", err)
	}

	sweeping := *sweepSeeds != "" || *sweepCorners != "" || *sweepLoads != ""
	if sweeping && *remote == "" {
		fatal("opera: sweep flags need -remote (an operag router, or comma-separated shard addresses)")
	}
	if *remote != "" {
		req := buildRemoteRequest(*netPath, *nodes, *seed, *chaosOrd,
			*step, *steps, *ordering, *track, *leakage, *sigmaI, *regions,
			*workers, *priority, *timeout, *mcCheck)
		req.TraceID = *traceID
		if sweeping {
			runSweep(*remote, service.SweepRequest{
				Base:    req,
				Corners: parseSweepCorners(*sweepCorners),
				Loads:   parseSweepLoads(*sweepLoads),
				Seeds:   parseSweepSeeds(*sweepSeeds),
			}, *sweepOut, *logLevel)
			return
		}
		runRemote(*remote, req, *logLevel, *showTr)
		return
	}

	tr := newTracer(*trace, *traceOut, *pprof)
	defer exportTrace(tr, *trace, *traceOut)

	spA := tr.Start("assemble")
	nl := loadOrGenerate(*netPath, *nodes, *seed)
	if *leakage {
		spA.End()
		runLeakage(nl, core.LeakageOptions{
			Regions: *regions, SigmaLogI: *sigmaI, Order: *chaosOrd,
			Step: *step, Steps: *steps, Ordering: method, Workers: *workers, Obs: tr,
		})
		return
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		fatal("opera: %v", err)
	}
	spA.SetAttrs(obs.Int("n", sys.N))
	spA.End()
	opts := core.Options{
		Order: *chaosOrd, Step: *step, Steps: *steps,
		Ordering: method, Workers: *workers, Obs: tr,
	}
	trackNodes := parseTrack(*track)
	opts.TrackNodes = trackNodes
	// The basis dimension comes from the stamped system's random
	// variables (mna.Dims: the paper's W/T/Leff reduced to ξG, ξL by
	// Eq. 14), not a hardcoded constant, so the printed size matches
	// what is actually solved.
	fmt.Printf("opera: %s, order %d (basis %d), %d steps of %.3g s\n",
		nl.Stats(), *chaosOrd, basisSize(mna.Dims, *chaosOrd), *steps, *step)
	var res *core.Result
	if *adaptive {
		ares, err := core.AnalyzeAdaptive(sys, core.AdaptiveOptions{Base: opts})
		if err != nil {
			fatal("opera: %v", err)
		}
		for _, st := range ares.OrdersTried {
			fmt.Printf("  order %d: max sigma %.4g V (rel change %.3g)\n", st.Order, st.MaxStd, st.RelChange)
		}
		if !ares.Converged {
			fmt.Println("  warning: variance did not converge within MaxOrder")
		}
		res = ares.Result
	} else {
		var err error
		res, err = core.Analyze(sys, opts)
		if err != nil {
			fatal("opera: %v", err)
		}
	}
	fmt.Printf("opera: solved %d-unknown augmented system (%s, nnz(L)=%d) in %.3fs%s\n",
		res.Galerkin.AugmentedN, res.Galerkin.Factorer, res.Galerkin.FactorNNZ,
		res.Elapsed.Seconds(), decoupledNote(res))
	printGuard(res.Galerkin.Guard())
	node, stepIdx := res.MaxMeanDropNode()
	sd := math.Sqrt(res.Variance[stepIdx][node])
	drop := res.VDD - res.Mean[stepIdx][node]
	fmt.Printf("worst node %d at step %d: mean drop %.2f%% VDD, σ %.4g V, ±3σ = ±%.0f%% of the drop\n",
		node, stepIdx, 100*drop/res.VDD, sd, 300*sd/drop)
	for _, tn := range trackNodes {
		e := res.Tracked[tn][stepIdx]
		fmt.Printf("node %d @ step %d: mean %.6g V, σ %.4g V, skew %.3f, excess kurtosis %.3f\n",
			tn, stepIdx, e.Mean(), e.Std(), e.Skewness(), e.ExcessKurtosis())
		fmt.Printf("  variance attribution: geometry ξG %.1f%%, channel ξL %.1f%%, interactions %.1f%%\n",
			100*e.SobolTotal(0), 100*e.SobolTotal(1), 100*e.SobolInteraction())
	}
	if *csvPath != "" {
		writeCSV(*csvPath, res)
	}
	if *mcCheck > 0 {
		runMCCheck(sys, opts, *mcCheck, *seed, res)
	}
}

// newTracer builds the run tracer when any observability flag is set
// (nil otherwise: the pipeline's nil fast path), installs the
// package-level metric hooks, and starts the debug server.
func newTracer(trace bool, traceOut, pprofAddr string) *obs.Tracer {
	if !trace && traceOut == "" && pprofAddr == "" {
		return nil
	}
	tr := obs.New("opera.run")
	reg := tr.Registry()
	sparse.SetMetrics(reg)
	order.SetMetrics(reg)
	factor.SetMetrics(reg)
	if pprofAddr != "" {
		if _, err := obs.ServeDebug(pprofAddr, tr); err != nil {
			fatal("opera: pprof server: %v", err)
		}
		fmt.Printf("opera: debug server on http://%s/debug/pprof/ (also /debug/vars, /metrics, /trace)\n", pprofAddr)
	}
	return tr
}

// exportTrace finishes the trace and emits the requested exports.
func exportTrace(tr *obs.Tracer, trace bool, traceOut string) {
	if tr == nil {
		return
	}
	tr.Finish()
	if trace {
		if err := tr.WriteText(os.Stdout); err != nil {
			fatal("opera: writing trace: %v", err)
		}
	}
	if traceOut != "" {
		if err := tr.WriteJSONFile(traceOut); err != nil {
			fatal("opera: writing %s: %v", traceOut, err)
		}
		fmt.Printf("opera: wrote trace to %s\n", traceOut)
	}
}

func loadOrGenerate(path string, nodes int, seed int64) *netlist.Netlist {
	if path == "" {
		nl, err := grid.Build(grid.DefaultSpec(nodes, seed))
		if err != nil {
			fatal("opera: generating grid: %v", err)
		}
		return nl
	}
	f, err := os.Open(path)
	if err != nil {
		fatal("opera: %v", err)
	}
	defer f.Close()
	nl, err := netlist.Read(f)
	if err != nil {
		fatal("opera: %v", err)
	}
	return nl
}

func parseTrack(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal("opera: bad -track entry %q", part)
		}
		out = append(out, v)
	}
	return out
}

func basisSize(dim, order int) int {
	n := 1
	for k := 1; k <= order; k++ {
		n = n * (dim + k) / k
	}
	return n
}

// printGuard reports the numerical-robustness telemetry: residual
// verification stats always, plus every escalation-ladder transition
// and step retry when the solve was not entirely healthy.
func printGuard(rep *numguard.Report) {
	if rep == nil {
		return
	}
	fmt.Printf("numguard: %s\n", rep.Summary())
	for _, tr := range rep.Transitions {
		fmt.Printf("numguard:   transition %s\n", tr)
	}
	if rep.StepRetries > 0 {
		fmt.Printf("numguard:   %d step(s) retried on a higher rung\n", rep.StepRetries)
	}
}

func decoupledNote(res *core.Result) string {
	if res.Galerkin.Decoupled {
		return " [decoupled Eq. 27 path]"
	}
	return ""
}

func writeCSV(path string, res *core.Result) {
	f, err := os.Create(path)
	if err != nil {
		fatal("opera: %v", err)
	}
	defer f.Close()
	t := report.NewTable("node", "mean_v", "std_v", "drop_pct_vdd")
	s := res.Steps
	for i := 0; i < res.N; i++ {
		t.AddRow(i,
			fmt.Sprintf("%.8g", res.Mean[s][i]),
			fmt.Sprintf("%.6g", math.Sqrt(res.Variance[s][i])),
			fmt.Sprintf("%.4f", res.DropPercent(res.Mean[s][i])))
	}
	if err := t.CSV(f); err != nil {
		fatal("opera: %v", err)
	}
	fmt.Printf("opera: wrote %s\n", path)
}

func runMCCheck(sys *mna.System, opts core.Options, samples int, seed int64, res *core.Result) {
	fmt.Printf("opera: running %d-sample Monte Carlo check...\n", samples)
	mc, mcTime, err := core.RunMC(sys, opts, samples, seed+1000, nil)
	if err != nil {
		fatal("opera: MC: %v", err)
	}
	nominal, err := core.NominalRun(sys, opts)
	if err != nil {
		fatal("opera: nominal: %v", err)
	}
	acc, err := core.CompareWithMC(res, mc, nominal)
	if err != nil {
		fatal("opera: %v", err)
	}
	fmt.Printf("accuracy vs MC: µ err avg %.4f%% max %.4f%%; σ err avg %.2f%% max %.2f%%\n",
		acc.AvgErrMeanPct, acc.MaxErrMeanPct, acc.AvgErrStdPct, acc.MaxErrStdPct)
	fmt.Printf("±3σ = ±%.0f%% of nominal drop; µ−µ0 shift %.4f%% VDD\n",
		acc.ThreeSigmaPctOfNominal, acc.MeanShiftPctVDD)
	fmt.Printf("CPU: MC %.2fs, OPERA %.2fs, speedup %.0fx\n",
		mcTime.Seconds(), res.Elapsed.Seconds(), float64(mcTime)/float64(res.Elapsed))
}

func runLeakage(nl *netlist.Netlist, opts core.LeakageOptions) {
	res, err := core.AnalyzeLeakage(nl, opts)
	if err != nil {
		fatal("opera: leakage analysis: %v", err)
	}
	fmt.Printf("opera: §5.1 special case, %d regions, sigma(ln I) = %.2g\n", opts.Regions, opts.SigmaLogI)
	fmt.Printf("opera: decoupled=%v, %d-unknown factorization, %.3fs\n",
		res.Galerkin.Decoupled, res.Galerkin.AugmentedN, res.Elapsed.Seconds())
	printGuard(res.Galerkin.Guard())
	node, step := res.MaxMeanDropNode()
	sd := math.Sqrt(res.Variance[step][node])
	drop := res.VDD - res.Mean[step][node]
	fmt.Printf("worst node %d at step %d: mean drop %.2f%% VDD, sigma %.4g V, ±3σ = ±%.0f%% of the drop\n",
		node, step, 100*drop/res.VDD, sd, 300*sd/drop)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// Command benchtab regenerates the paper's evaluation artifacts end to
// end: Table 1 (grid-by-grid OPERA vs Monte Carlo accuracy and
// speedup), Figures 1–2 (voltage-drop distributions), the §5.1 special
// case and the ablation studies.
//
// Usage:
//
//	benchtab -exp table1
//	benchtab -exp table1 -full        # paper-scale sizes and 1000 samples
//	benchtab -exp fig1
//	benchtab -exp fig2
//	benchtab -exp special
//	benchtab -exp ordersweep
//	benchtab -exp ordering
//	benchtab -exp all
//
// With -trace it switches to report mode: it reads a JSON trace written
// by `opera -trace-out` (or `mc -trace-out`) and renders a markdown
// per-phase timing table plus a metrics summary.
//
//	opera -nodes 20000 -trace-out trace.json && benchtab -trace trace.json
//
// With -flight it renders a flight-recorder dump fetched from a running
// operad as markdown: the recent / slowest / failed views with per-job
// timing splits and trace IDs.
//
//	curl -s localhost:9130/debug/flight > flight.json && benchtab -flight flight.json
//
// With -suite it runs the standardized perf-scenario suite and emits
// the machine-readable BenchReport; -compare diffs two reports under
// the per-metric regression thresholds and exits 1 on soft (warn-band)
// and 2 on hard regressions — the CI perf gate:
//
//	benchtab -suite quick -json new.json
//	benchtab -compare BENCH_seed.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"opera/internal/experiments"
	"opera/internal/obs"
	"opera/internal/obs/bench"
	"opera/internal/order"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: table1, fig1, fig2, special, ordersweep, mor, ordering, all")
		full        = flag.Bool("full", false, "paper-scale configuration (slow)")
		seed        = flag.Int64("seed", 2005, "experiment seed")
		tracePath   = flag.String("trace", "", "render a markdown timing table from this JSON trace file and exit")
		flightPath  = flag.String("flight", "", "render a markdown report from this /debug/flight JSON dump and exit")
		workers     = flag.Int("workers", 0, "solver worker cap: threads into every suite row's worker pools and caps GOMAXPROCS for experiment runs; 0 leaves both alone (results are identical for any value)")
		suite       = flag.String("suite", "", "run the perf-scenario suite (quick or default) instead of experiments")
		jsonOut     = flag.String("json", "", "write the suite's BenchReport JSON to this file (- or empty with -suite: stdout)")
		comparePath = flag.String("compare", "", "baseline BenchReport; compares against the report named by the positional argument and exits 0/1/2 (clean/warn/fail)")
		traceOut    = flag.String("trace-out", "", "with -suite: write the shared suite trace (one span per scenario row) as JSON to this file")
		kernelGate  = flag.Bool("kernel-gate", false, "with -suite: fail (exit 2) if any supernodal factor row is slower than its scalar mate")
	)
	flag.Parse()
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *tracePath != "" {
		if err := writeTraceTable(os.Stdout, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *flightPath != "" {
		if err := writeFlightTable(os.Stdout, *flightPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *comparePath != "" {
		os.Exit(runCompare(*comparePath, flag.Arg(0)))
	}
	if *suite != "" || *jsonOut != "" {
		if err := runSuite(*suite, *jsonOut, *traceOut, *workers, *kernelGate); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("table1", func() error {
		cfg := experiments.DefaultTable1()
		if *full {
			cfg = experiments.FullTable1()
		}
		cfg.Seed = *seed
		_, err := experiments.WriteTable1(os.Stdout, cfg, logf)
		return err
	})
	run("fig1", func() error {
		cfg := experiments.DefaultFigure(0)
		if *full {
			cfg = experiments.FullFigure(0)
		}
		_, err := experiments.WriteFigure(os.Stdout, cfg, "Figure 1")
		return err
	})
	run("fig2", func() error {
		cfg := experiments.DefaultFigure(1)
		if *full {
			cfg = experiments.FullFigure(1)
		}
		_, err := experiments.WriteFigure(os.Stdout, cfg, "Figure 2")
		return err
	})
	run("special", func() error {
		nodes, samples := 2600, 1000
		if *full {
			nodes, samples = 19181, 1000
		}
		_, err := experiments.WriteSpecialCase(os.Stdout, nodes, 2, 3, samples, 0.6, *seed)
		return err
	})
	run("ordersweep", func() error {
		nodes, samples := 1600, 800
		if *full {
			nodes, samples = 19181, 2000
		}
		rows, err := experiments.RunOrderSweep(nodes, 3, samples, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("Expansion-order sweep (%d nodes, %d-sample MC reference)\n\n", nodes, samples)
		return experiments.FormatOrderSweep(rows).Write(os.Stdout)
	})
	run("mor", func() error {
		nodes := 2600
		if *full {
			nodes = 19181
		}
		row, err := experiments.RunMORAblation(nodes, 12, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("MOR ablation (§5.2), %d nodes\n\n", nodes)
		return experiments.FormatMORAblation(row).Write(os.Stdout)
	})
	run("ordering", func() error {
		nodes := 1600
		if *full {
			nodes = 19181
		}
		rows, err := experiments.RunOrderingAblation(nodes, *seed, []order.Method{
			order.MethodAMD, order.MethodND, order.MethodMD, order.MethodRCM, order.MethodNatural,
		})
		if err != nil {
			return err
		}
		fmt.Printf("Augmented-system ordering ablation (%d nodes)\n\n", nodes)
		return experiments.FormatOrderingAblation(rows).Write(os.Stdout)
	})
}

// runSuite executes the named perf-scenario suite. One tracer is
// shared across every row (so -trace-out yields a single dump spanning
// the whole suite) and the -workers cap threads into each scenario's
// solver pools, not just GOMAXPROCS.
func runSuite(name, jsonOut, traceOut string, workers int, kernelGate bool) error {
	if name == "" {
		name = "quick"
	}
	scenarios, err := bench.Suite(name)
	if err != nil {
		return err
	}
	tr := obs.New("benchtab.suite")
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := bench.Run(name, scenarios, bench.RunOptions{
		Workers: workers, Tracer: tr, Logf: logf,
	})
	if err != nil {
		return err
	}
	tr.Finish()
	if traceOut != "" {
		if err := tr.WriteJSONFile(traceOut); err != nil {
			return err
		}
	}
	if jsonOut == "" || jsonOut == "-" {
		if err := rep.Encode(os.Stdout); err != nil {
			return err
		}
	} else if err := rep.WriteFile(jsonOut); err != nil {
		return err
	}
	if kernelGate {
		if fails := bench.KernelGate(rep, 0); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, f)
			}
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "kernel gate: supernodal >= scalar on every paired factor row")
	}
	return nil
}

// runCompare diffs a new report against the baseline and returns the
// gate's exit code: 0 clean, 1 soft regressions, 2 hard regressions or
// a missing/unreadable report.
func runCompare(basePath, newPath string) int {
	if newPath == "" {
		fmt.Fprintln(os.Stderr, "benchtab: -compare needs the new report as positional argument: benchtab -compare base.json new.json")
		return 2
	}
	base, err := bench.ReadReportFile(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		return 2
	}
	cur, err := bench.ReadReportFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		return 2
	}
	c := bench.Compare(base, cur, nil)
	fmt.Printf("## Perf comparison — %s vs %s\n\n", basePath, newPath)
	if base.Workers != cur.Workers || base.GOARCH != cur.GOARCH {
		fmt.Printf("> header mismatch: base %s/%s w=%d, new %s/%s w=%d — wall deltas are not meaningful\n\n",
			base.GOOS, base.GOARCH, base.Workers, cur.GOOS, cur.GOARCH, cur.Workers)
	}
	if err := c.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		return 2
	}
	return c.ExitCode()
}

// writeTraceTable renders a trace dump (as written by -trace-out) as a
// markdown per-phase timing table followed by a metrics summary.
func writeTraceTable(w *os.File, path string) error {
	d, err := obs.ReadDumpFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Phase timing — %s\n\n", d.Name)
	fmt.Fprintf(w, "Total %.2f ms", d.TotalMS)
	if d.AllocBytes > 0 {
		fmt.Fprintf(w, ", %s allocated", fmtBytes(d.AllocBytes))
	}
	fmt.Fprintf(w, ".\n\n")
	fmt.Fprintln(w, "| phase | ms | % of total | alloc | attrs |")
	fmt.Fprintln(w, "|:------|---:|-----------:|------:|:------|")
	total := d.TotalMS
	if total <= 0 {
		total = 1
	}
	var sumTop float64
	var walk func(spans []obs.SpanDump, depth int)
	walk = func(spans []obs.SpanDump, depth int) {
		for _, s := range spans {
			if depth == 0 {
				sumTop += s.DurMS
			}
			name := s.Name
			if depth > 0 {
				name = strings.Repeat("&nbsp;&nbsp;", depth) + "↳ " + name
			}
			fmt.Fprintf(w, "| %s | %.2f | %.1f%% | %s | %s |\n",
				name, s.DurMS, 100*s.DurMS/total, fmtBytes(s.AllocBytes), fmtAttrs(s.Attrs))
			walk(s.Spans, depth+1)
		}
	}
	walk(d.Spans, 0)
	fmt.Fprintf(w, "| **total (phases)** | **%.2f** | **%.1f%%** | | |\n", sumTop, 100*sumTop/total)
	m := d.Metrics
	if len(m.Counters)+len(m.Gauges)+len(m.Histograms) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\n## Metrics\n\n")
	fmt.Fprintln(w, "| metric | value |")
	fmt.Fprintln(w, "|:-------|:------|")
	for _, name := range sortedKeys(m.Counters) {
		fmt.Fprintf(w, "| %s | %d |\n", name, m.Counters[name])
	}
	for _, name := range sortedKeys(m.Gauges) {
		fmt.Fprintf(w, "| %s | %g |\n", name, m.Gauges[name])
	}
	for _, name := range sortedKeys(m.Histograms) {
		h := m.Histograms[name]
		if h.Count == 0 {
			fmt.Fprintf(w, "| %s | (no observations) |\n", name)
			continue
		}
		fmt.Fprintf(w, "| %s | count=%d mean=%.4g min=%.4g max=%.4g |\n",
			name, h.Count, h.Mean(), h.Min, h.Max)
	}
	return nil
}

// writeFlightTable renders a /debug/flight dump as markdown: one table
// per view (recent, slowest, failed), then a per-phase breakdown for
// every entry that retained a span tree.
func writeFlightTable(w *os.File, path string) error {
	d, err := obs.ReadFlightFile(path)
	if err != nil {
		return err
	}
	view := func(title string, entries []obs.FlightEntry) {
		fmt.Fprintf(w, "## Flight — %s (%d)\n\n", title, len(entries))
		if len(entries) == 0 {
			fmt.Fprintln(w, "(empty)")
			fmt.Fprintln(w)
			return
		}
		fmt.Fprintln(w, "| job | trace | state | analysis | priority | queued ms | run ms | error |")
		fmt.Fprintln(w, "|:----|:------|:------|:---------|:---------|----------:|-------:|:------|")
		for _, e := range entries {
			state := e.State
			if e.Cached {
				state += " (cached)"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %.1f | %.1f | %s |\n",
				e.JobID, e.TraceID, state, e.Analysis, e.Priority, e.QueuedMS, e.RunMS, e.Error)
		}
		fmt.Fprintln(w)
	}
	view("recent", d.Recent)
	view("slowest", d.Slowest)
	view("failed", d.Failed)
	seen := map[string]bool{}
	for _, entries := range [][]obs.FlightEntry{d.Slowest, d.Failed, d.Recent} {
		for _, e := range entries {
			if e.Trace == nil || seen[e.TraceID] {
				continue
			}
			seen[e.TraceID] = true
			fmt.Fprintf(w, "### Phases — %s (trace %s)\n\n", e.JobID, e.TraceID)
			fmt.Fprintln(w, "| phase | ms | alloc |")
			fmt.Fprintln(w, "|:------|---:|------:|")
			var walk func(spans []obs.SpanDump, depth int)
			walk = func(spans []obs.SpanDump, depth int) {
				for _, s := range spans {
					name := s.Name
					if depth > 0 {
						name = strings.Repeat("&nbsp;&nbsp;", depth) + "↳ " + name
					}
					alloc := fmtBytes(s.AllocBytes)
					if s.AllocApprox && alloc != "" {
						alloc = "~" + alloc
					}
					fmt.Fprintf(w, "| %s | %.2f | %s |\n", name, s.DurMS, alloc)
					walk(s.Spans, depth+1)
				}
			}
			walk(e.Trace.Spans, 0)
			fmt.Fprintln(w)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtBytes(b uint64) string {
	switch {
	case b == 0:
		return ""
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}

func fmtAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(attrs))
	for _, k := range sortedKeys(attrs) {
		parts = append(parts, k+"="+attrs[k])
	}
	return strings.Join(parts, " ")
}

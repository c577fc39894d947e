// Command operabench is the OPERA benchmark. One invocation runs one
// seeded workload and prints its metrics:
//
//	operabench --workload table1|leakage|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it times the calls into each layer's public functions
// with tracing off and prints the end-to-end metrics; with --trace 1 it
// runs the same workload through the program's own tracing hooks and
// prints the per-layer metrics. Every run checks the program's outputs.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"opera_s", "s"},
	{"mc_s", "s"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a --trace 1 run prints, on every workload;
// a layer a workload never reaches reports 0.
var perLayer = []metricDef{
	{"grid.build_s", "s"},
	{"mna.stamp_s", "s"},
	{"client.submit_ms_p50", "ms"},
	{"client.wait_ms_p50", "ms"},
	{"client.wait_ms_p99", "ms"},
	{"client.result_ms_p50", "ms"},
	{"client.job_ms_p99", "ms"},
	{"galerkin.stamp_s", "s"},
	{"galerkin.assemble_s", "s"},
	{"galerkin.step_ms_p50", "ms"},
	{"galerkin.solve_ms_p50", "ms"},
	{"galerkin.cg_iterations", "count"},
	{"order.order_s", "s"},
	{"factor.factor_s", "s"},
	{"factor.refactor_s", "s"},
	{"factor.factorizations", "count"},
	{"factor.flops", "count"},
	{"factor.nnz", "count"},
	{"transient.transient_s", "s"},
	{"core.moments_s", "s"},
	{"core.phase_cover_pct", "%"},
	{"montecarlo.sample_ms_p50", "ms"},
	{"montecarlo.sample_ms_p99", "ms"},
	{"montecarlo.samples", "count"},
	{"sparse.matvec_flops", "count"},
	{"numguard.solves_verified", "count"},
	{"numguard.escalations", "count"},
	{"numguard.refinement_sweeps", "count"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"cluster.forward_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.solve_ms_p50", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.solves_per_key", "ratio"},
	{"service.peer_peek_hit_ratio", "ratio"},
	{"service.peer_peek_ms_p50", "ms"},
	{"service.rejected", "count"},
	{"trace.incomplete", "count"},
	{"trace.overhead_pct", "%"},
	{"accuracy.mean_err_pct", "%"},
	{"accuracy.sigma_err_pct", "%"},
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's measurements, outcome counts and checks.
type report struct {
	trace     bool
	values    map[string]float64
	attempted int
	failed    int
	// spans keeps every trace the traced pass collected, in memory until
	// the run ends (obs.Dump for library calls, stitched service traces).
	spans []any
}

func newReport(trace bool) *report {
	return &report{trace: trace, values: map[string]float64{}}
}

// set records a metric and prints it with the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	fmt.Printf("metric %-28s %14.6g  (n=%d)\n", name, v, samples)
}

// timing records the median of a set of timings and prints their
// quartiles beside it.
func (r *report) timing(name string, xs []float64) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		r.set(name, median(xs), len(xs))
		return
	}
	r.values[name] = q2
	fmt.Printf("metric %-28s %14.6g  (median of n=%d; quartiles %.6g to %.6g)\n", name, q2, len(xs), q1, q3)
}

// derive prints a figure that is informative but not a gated metric.
func (r *report) derive(format string, args ...any) {
	fmt.Println("derived", fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err counts as failed and
// is printed.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Printf("FAILED %s: %v\n", what, err)
	}
}

// check counts one output check.
func (r *report) check(what string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	if ok {
		r.attempted++
		fmt.Printf("check ok   %s: %s\n", what, detail)
		return
	}
	r.op("check "+what, fmt.Errorf("%s", detail))
}

// writeSpans writes the spans the traced pass kept in memory to
// .bench_build/traces/<workload>-seed<seed>.json under the working
// directory (the checkout root when run through run.sh).
func writeSpans(workload string, seed int64, spans []any) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("derived %d traces written to %s\n", len(spans), path)
	return nil
}

// timeIt returns how long fn took. It first collects the garbage earlier
// calls left, so no call is timed paying for another's garbage and the
// peak RSS is one call's high-water mark, not two calls' heaps stacked
// by wherever the collector happened to run.
func timeIt(fn func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

func main() {
	workload := flag.String("workload", "", "table1, leakage or service")
	seed := flag.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Float64("seconds", 30, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "operabench: --trace must be 0 or 1")
		os.Exit(2)
	}
	runs := map[string]func(*plan, float64, *report) error{
		"table1":  runTable1,
		"leakage": runLeakage,
		"service": runService,
	}
	run, ok := runs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "operabench: unknown workload %q (want table1, leakage or service)\n", *workload)
		os.Exit(2)
	}
	// The machine the benchmark targets has two cores; pin the scheduler
	// so a larger host runs the same parallelism.
	runtime.GOMAXPROCS(2)

	r := newReport(*trace == 1)
	p := newPlan(*seed)
	fmt.Printf("operabench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	if err := run(p, *seconds, r); err != nil {
		fmt.Fprintf(os.Stderr, "operabench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.trace {
		if err := writeSpans(*workload, *seed, r.spans); err != nil {
			fmt.Fprintf(os.Stderr, "operabench: %v\n", err)
			os.Exit(1)
		}
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "operabench: %v\n", err)
			os.Exit(1)
		}
		r.set("peak_rss_mb", rss, 1)
	}
	if r.attempted > 0 {
		r.derive("failed_frac = %d/%d = %.6g ratio (n=%d)", r.failed, r.attempted, float64(r.failed)/float64(r.attempted), r.attempted)
	}

	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			if !r.trace {
				missing = append(missing, d.name)
				continue
			}
			v = 0 // this workload never reaches the layer
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "operabench: %s measured no value for %v\n", *workload, missing)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "operabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

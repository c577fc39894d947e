// Package bench is the standardized performance-scenario suite behind
// `benchtab -json` and the CI perf gate. A Scenario names one (grid
// size × solve path × ordering) cell; Run drives each cell through the
// real core entry points and records wall time, allocation volume,
// peak RSS and the machine-independent solver metrics (symbolic flops,
// fill-in, factor nnz, condition estimate, numguard escalations) into
// a versioned Report that Compare can diff against a committed
// baseline.
package bench

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"opera/internal/core"
	"opera/internal/factor"
	"opera/internal/galerkin"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/sparse"
)

// Scenario is one suite cell. Zero values select sane defaults
// (Order 2, Steps 8, Samples 50, AMD ordering, seed 1).
type Scenario struct {
	// Name keys the row in reports; Compare pairs baseline and new rows
	// by it, so renaming a scenario is a baseline-breaking change.
	Name string `json:"name"`
	// Path selects the solve: "mc", "decoupled", "separable",
	// "coupled" (every tenth resistor off-die, so CG serves),
	// "transient" or "factor" (repeated numeric refactorizations of
	// the transient companion — the kernel microbenchmark).
	Path string `json:"path"`
	// Nodes is the requested grid size (grid.DefaultSpec clamps below
	// 64).
	Nodes int `json:"nodes"`
	// Order is the chaos order (ignored by mc and transient).
	Order int `json:"order,omitempty"`
	// Steps is the transient step count.
	Steps int `json:"steps,omitempty"`
	// Samples is the Monte Carlo sample count (mc only).
	Samples int `json:"samples,omitempty"`
	// Ordering is the fill-reducing ordering of every path: "amd"
	// (default), "nd", "md", "rcm" or "natural".
	Ordering string `json:"ordering,omitempty"`
	// Kernel names the Cholesky kernel of a factor row: "" or
	// "supernodal" (default, blocked panels), "scalar" (up-looking
	// reference), so KernelGate can pair the two. Every other path
	// runs the kernel its matrix shape implies and rejects "scalar".
	Kernel string `json:"kernel,omitempty"`
	// Seed feeds the grid generator (and the mc sampler).
	Seed int64 `json:"seed,omitempty"`
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Order == 0 {
		sc.Order = 2
	}
	if sc.Steps == 0 {
		sc.Steps = 8
	}
	if sc.Samples == 0 {
		sc.Samples = 50
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// QuickSuite is the CI suite: one row per solve path at grid sizes
// small enough that the whole run stays under a few seconds on a
// shared runner, yet large enough that the deterministic metrics
// (flops, fill, nnz) are meaningful.
func QuickSuite() []Scenario {
	return []Scenario{
		{Name: "transient-256", Path: "transient", Nodes: 256, Steps: 10, Seed: 3},
		{Name: "mc-256-s40", Path: "mc", Nodes: 256, Steps: 8, Samples: 40, Seed: 3},
		{Name: "decoupled-256-o2", Path: "decoupled", Nodes: 256, Order: 2, Steps: 8, Seed: 3},
		{Name: "coupled-128-o2", Path: "coupled", Nodes: 128, Order: 2, Steps: 6, Seed: 3},
		{Name: "separable-128-o2", Path: "separable", Nodes: 128, Order: 2, Steps: 6, Seed: 3},
		{Name: "factor-2k-nd-scalar", Path: "factor", Nodes: 2000, Ordering: "nd", Kernel: "scalar", Seed: 3},
		{Name: "factor-2k-nd-super", Path: "factor", Nodes: 2000, Ordering: "nd", Kernel: "supernodal", Seed: 3},
		{Name: "factor-2k-amd-scalar", Path: "factor", Nodes: 2000, Ordering: "amd", Kernel: "scalar", Seed: 3},
		{Name: "factor-2k-amd-super", Path: "factor", Nodes: 2000, Ordering: "amd", Kernel: "supernodal", Seed: 3},
	}
}

// DefaultSuite is the workstation suite: the quick rows plus larger
// grids and ordering variants, for manual perf work.
func DefaultSuite() []Scenario {
	return append(QuickSuite(),
		Scenario{Name: "transient-2k", Path: "transient", Nodes: 2000, Steps: 20, Seed: 5},
		Scenario{Name: "mc-1k-s100", Path: "mc", Nodes: 1000, Steps: 10, Samples: 100, Seed: 5},
		Scenario{Name: "decoupled-1k-o3", Path: "decoupled", Nodes: 1000, Order: 3, Steps: 10, Seed: 5},
		Scenario{Name: "decoupled-1k-o3-rcm", Path: "decoupled", Nodes: 1000, Order: 3, Steps: 10, Ordering: "rcm", Seed: 5},
		Scenario{Name: "decoupled-1k-o3-natural", Path: "decoupled", Nodes: 1000, Order: 3, Steps: 10, Ordering: "natural", Seed: 5},
		Scenario{Name: "decoupled-1k-o3-nd", Path: "decoupled", Nodes: 1000, Order: 3, Steps: 10, Ordering: "nd", Seed: 5},
		Scenario{Name: "coupled-256-o2", Path: "coupled", Nodes: 256, Order: 2, Steps: 8, Seed: 5},
		Scenario{Name: "factor-8k-nd-scalar", Path: "factor", Nodes: 8000, Ordering: "nd", Kernel: "scalar", Seed: 5},
		Scenario{Name: "factor-8k-nd-super", Path: "factor", Nodes: 8000, Ordering: "nd", Kernel: "supernodal", Seed: 5},
		Scenario{Name: "factor-8k-amd-scalar", Path: "factor", Nodes: 8000, Ordering: "amd", Kernel: "scalar", Seed: 5},
		Scenario{Name: "factor-8k-amd-super", Path: "factor", Nodes: 8000, Ordering: "amd", Kernel: "supernodal", Seed: 5},
	)
}

// Suite resolves a suite name ("quick" or "default").
func Suite(name string) ([]Scenario, error) {
	switch name {
	case "", "quick":
		return QuickSuite(), nil
	case "default", "full":
		return DefaultSuite(), nil
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (want quick or default)", name)
	}
}

// RunOptions configures a suite run.
type RunOptions struct {
	// Workers caps each scenario's solver worker pool (0 means
	// GOMAXPROCS). Recorded in the report header: worker count changes
	// wall time, so baselines are only comparable at equal workers.
	Workers int
	// Tracer, when non-nil, receives one span per scenario row, so a
	// single trace dump covers the whole suite.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives one progress line per row.
	Logf func(format string, args ...any)
}

// Run executes the scenarios in order and assembles the report
// envelope. Scenarios run sequentially — concurrent rows would
// contaminate each other's wall and RSS numbers.
func Run(suite string, scenarios []Scenario, opts RunOptions) (*Report, error) {
	rep := NewReport(suite, opts.Workers)
	for _, sc := range scenarios {
		row, err := runScenario(sc, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %q: %w", sc.Name, err)
		}
		rep.Rows = append(rep.Rows, row)
		if opts.Logf != nil {
			opts.Logf("bench %-24s %8.1f ms  %8s alloc  flops %.3g  fill %.2f",
				row.Name, row.WallMS, fmtBytes(row.AllocBytes), float64(row.FactorFlops), row.FillRatio)
		}
	}
	return rep, nil
}

func runScenario(sc Scenario, opts RunOptions) (Row, error) {
	sc = sc.withDefaults()
	if sc.Name == "" {
		return Row{}, fmt.Errorf("scenario needs a name")
	}
	ord, err := order.ParseMethod(sc.Ordering)
	if err != nil {
		return Row{}, err
	}
	kern, err := parseKernel(sc.Kernel)
	if err != nil {
		return Row{}, err
	}
	if kern == "scalar" && sc.Path != "factor" {
		return Row{}, fmt.Errorf("kernel %q applies only to the factor path, not %q", kern, sc.Path)
	}
	spec := grid.DefaultSpec(sc.Nodes, sc.Seed)
	nl, err := grid.Build(spec)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Name: sc.Name, Path: sc.Path, Nodes: sc.Nodes,
		Order: sc.Order, Steps: sc.Steps, Ordering: ord.String(),
		Kernel: kern,
	}
	sp := opts.Tracer.Start("bench."+sc.Name,
		obs.Attr{Key: "path", Value: sc.Path}, obs.Int("nodes", sc.Nodes))
	alloc0 := totalAllocBytes()
	start := time.Now()

	const step = 1e-10
	switch sc.Path {
	case "transient":
		sys, berr := mna.Build(nl, mna.DefaultSpec())
		if berr != nil {
			return Row{}, berr
		}
		row.N = sys.N
		var nom *core.NominalResult
		nom, err = core.Nominal(sys, core.Options{
			Order: 1, Step: step, Steps: sc.Steps, Ordering: ord, Workers: opts.Workers,
		})
		if err == nil {
			row.FactorNNZ = nom.Symbolic.LNNZ()
			row.FactorFlops = nom.Symbolic.FlopEstimate()
			row.FillRatio = nom.Symbolic.FillRatio()
		}
	case "mc":
		sys, berr := mna.Build(nl, mna.DefaultSpec())
		if berr != nil {
			return Row{}, berr
		}
		row.N = sys.N
		row.Samples = sc.Samples
		var mc *montecarloResult
		mc, err = runMC(sys, sc, ord, opts.Workers)
		if err == nil {
			row.FactorNNZ = mc.FactorNNZ
			row.FactorFlops = mc.FactorFlops
			row.FillRatio = mc.FillRatio
			row.Samples = mc.SamplesRun
		}
	case "decoupled":
		var res *core.Result
		res, err = core.AnalyzeLeakage(nl, core.LeakageOptions{
			Regions: spec.NumRegions(), SigmaLogI: 0.4,
			Order: sc.Order, Step: step, Steps: sc.Steps,
			Ordering: ord, Workers: opts.Workers,
		})
		if err == nil {
			if !res.Galerkin.Decoupled {
				return Row{}, fmt.Errorf("decoupled path not taken")
			}
			row.fromGalerkin(res.Galerkin)
		}
	case "coupled", "separable":
		if sc.Path == "coupled" {
			for i := 9; i < len(nl.Resistors); i += 10 {
				nl.Resistors[i].OnDie = false
			}
		}
		sys, berr := mna.Build(nl, mna.DefaultSpec())
		if berr != nil {
			return Row{}, berr
		}
		// A private tracer counts this row's CG iterations alone.
		tr := obs.New("bench." + sc.Name)
		var res *core.Result
		res, err = core.Analyze(sys, core.Options{
			Order: sc.Order, Step: step, Steps: sc.Steps,
			Ordering: ord, Workers: opts.Workers, Obs: tr,
		})
		if err == nil {
			row.N = res.Galerkin.AugmentedN
			row.fromGalerkin(res.Galerkin)
			row.CGIterations = int(tr.Registry().Counter("galerkin.cg_iterations_total").Value())
		}
	case "factor":
		sys, berr := mna.Build(nl, mna.DefaultSpec())
		if berr != nil {
			return Row{}, berr
		}
		row.N = sys.N
		companion := sparse.Add(1, sys.Ga, 1/step, sys.Ca)
		perm := order.Permute(ord, companion)
		// Repeated numeric refactorizations of one symbolic analysis —
		// exactly the Monte Carlo per-sample hot loop, so this wall time
		// is the kernel comparison the perf gate's KernelGate reads.
		var flops int64
		if kern == "scalar" {
			sym := factor.CholAnalyze(companion, perm)
			var f *factor.CholFactor
			for rep := 0; rep < factorReps && err == nil; rep++ {
				f, err = sym.Factorize(companion, f)
			}
			row.Rung = "cholesky"
			row.FactorNNZ, row.FillRatio, flops = sym.LNNZ(), sym.FillRatio(), sym.FlopEstimate()
		} else {
			sym := factor.CholAnalyzeSupernodal(companion, perm, -1)
			workers := parallel.Workers(opts.Workers)
			var f *factor.SuperFactor
			for rep := 0; rep < factorReps && err == nil; rep++ {
				f, err = sym.Factorize(companion, f, workers)
			}
			row.Rung = "supernodal"
			row.FactorNNZ, row.FillRatio, flops = sym.LNNZ(), sym.FillRatio(), sym.FlopEstimate()
		}
		row.FactorFlops = int64(factorReps) * flops
	default:
		return Row{}, fmt.Errorf("unknown path %q (want mc, decoupled, separable, coupled, transient or factor)", sc.Path)
	}
	if err != nil {
		return Row{}, err
	}

	row.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	row.AllocBytes = totalAllocBytes() - alloc0
	row.PeakRSSBytes = peakRSSBytes()
	sp.SetAttrs(obs.Float("wall_ms", row.WallMS), obs.Int64("flops", row.FactorFlops))
	sp.End()
	return row, nil
}

// fromGalerkin copies the solver telemetry added for the
// numerical-health records into the row.
func (r *Row) fromGalerkin(g galerkin.Result) {
	r.Rung = g.Factorer
	r.FactorNNZ = g.FactorNNZ
	r.FactorFlops = g.FactorFlops
	r.FillRatio = g.FillRatio
	r.CondEst = g.CondEst
	if gd := g.Guard(); gd != nil {
		s := gd.Snapshot()
		r.MaxResidual = s.MaxResidual
		r.Escalations = gd.Escalations()
	}
	if r.N == 0 {
		r.N = g.AugmentedN
	}
}

// montecarloResult is the subset of montecarlo.Result bench reads;
// declared locally so the switch above stays free of a direct
// montecarlo import (core re-exports the run).
type montecarloResult struct {
	SamplesRun  int
	FactorNNZ   int
	FillRatio   float64
	FactorFlops int64
}

func runMC(sys *mna.System, sc Scenario, ord order.Method, workers int) (*montecarloResult, error) {
	mc, _, err := core.RunMC(sys, core.Options{
		Order: 1, Step: 1e-10, Steps: sc.Steps, Ordering: ord, Workers: workers,
	}, sc.Samples, sc.Seed, nil)
	if err != nil {
		return nil, err
	}
	return &montecarloResult{
		SamplesRun: mc.SamplesRun, FactorNNZ: mc.FactorNNZ,
		FillRatio: mc.FillRatio, FactorFlops: mc.FactorFlops,
	}, nil
}

// parseKernel normalizes a scenario's kernel name to the row's
// "supernodal" or "scalar".
func parseKernel(s string) (string, error) {
	switch s {
	case "", "super", "supernodal":
		return "supernodal", nil
	case "scalar":
		return "scalar", nil
	default:
		return "", fmt.Errorf("unknown kernel %q (want supernodal or scalar)", s)
	}
}

// factorReps is the refactorization count of the "factor" path: enough
// repetitions that the numeric kernel dominates the row's wall time
// over the one-off symbolic analysis and ordering.
const factorReps = 5

// totalAllocBytes reads the cumulative heap allocation counter — the
// same runtime/metrics sample the obs tracer uses for span alloc
// deltas. Monotone, so a delta across a scenario is its allocation
// volume regardless of GC activity.
func totalAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSSBytes reports the process high-water RSS from
// /proc/self/status (VmHWM). Linux-only; 0 elsewhere. Process-global
// and monotone: later rows inherit earlier rows' peak, so the metric
// is informational, not compared.
func peakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

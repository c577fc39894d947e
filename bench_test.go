// Package bench regenerates every table and figure of the paper's
// evaluation (§6) as Go benchmarks:
//
//	BenchmarkTable1           — Table 1 (OPERA vs 1000-sample Monte Carlo)
//	BenchmarkFigure1          — Figure 1 (drop distribution, worst node)
//	BenchmarkFigure2          — Figure 2 (drop distribution, second node)
//	BenchmarkSpecialCase      — §5.1 decoupled analysis vs coupled vs MC
//	BenchmarkOrderSweep       — expansion order p = 1..3 accuracy/cost
//	BenchmarkMORAblation      — §5.2 MOR-reduced vs full stochastic solve
//	BenchmarkOrderingAblation — ND vs RCM vs MD vs natural fill/time
//	BenchmarkOperaOnly        — OPERA analysis cost scaling across sizes
//	BenchmarkMCPerSample      — Monte Carlo per-sample cost across sizes
//
// Each benchmark prints the regenerated rows/series once (so the run's
// output contains the paper-shaped artifact) and reports the headline
// quantity as a custom metric. Run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"opera/internal/core"
	"opera/internal/experiments"
	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/montecarlo"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/sparse"
)

// printOnce keys output by benchmark name so repeated b.N iterations
// do not repeat the artifact.
var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultTable1()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		once("table1", func() {
			fmt.Println("\nTable 1 (reproduced; order-2 expansion, 1000-sample MC):")
			if err := experiments.FormatTable1(rows).Write(os.Stdout); err != nil {
				b.Fatal(err)
			}
		})
		var worstSpeedup, sumSpeedup, sumSigErr float64
		worstSpeedup = rows[0].Speedup
		for _, r := range rows {
			if r.Speedup < worstSpeedup {
				worstSpeedup = r.Speedup
			}
			sumSpeedup += r.Speedup
			sumSigErr += r.AvgErrStdPct
		}
		b.ReportMetric(sumSpeedup/float64(len(rows)), "avg-speedup-x")
		b.ReportMetric(worstSpeedup, "min-speedup-x")
		b.ReportMetric(sumSigErr/float64(len(rows)), "avg-sigma-err-%")
	}
}

func benchmarkFigure(b *testing.B, rank int, title string) {
	cfg := experiments.DefaultFigure(rank)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure(cfg)
		if err != nil {
			b.Fatal(err)
		}
		once(title, func() {
			fmt.Printf("\n%s (reproduced): voltage-drop distribution, node %d, step %d\n",
				title, res.Node, res.Step)
			fmt.Println("drop pct VDD | MC pct occ | OPERA pct occ")
			for k := range res.MC.X {
				fmt.Printf("%8.3f  %8.2f  %10.2f\n", res.MC.X[k], res.MC.Y[k], res.Opera.Y[k])
			}
		})
		b.ReportMetric(res.KS, "ks-distance")
	}
}

func BenchmarkFigure1(b *testing.B) { benchmarkFigure(b, 0, "Figure 1") }

func BenchmarkFigure2(b *testing.B) { benchmarkFigure(b, 1, "Figure 2") }

func BenchmarkSpecialCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSpecialCase(2600, 2, 3, 1000, 0.6, 2005)
		if err != nil {
			b.Fatal(err)
		}
		once("special", func() {
			fmt.Printf("\n§5.1 special case (reproduced): %d nodes, %d regions\n", res.Nodes, res.Regions)
			fmt.Printf("  decoupled %.3fs | coupled %.3fs | MC(%d) %.3fs | σ err vs MC %.2f%%\n",
				res.DecoupledTime.Seconds(), res.CoupledTime.Seconds(),
				res.MCSamples, res.MCTime.Seconds(), res.AvgErrStdPctMC)
		})
		b.ReportMetric(float64(res.MCTime)/float64(res.DecoupledTime), "speedup-vs-mc-x")
		b.ReportMetric(float64(res.CoupledTime)/float64(res.DecoupledTime), "speedup-vs-coupled-x")
	}
}

func BenchmarkOrderSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunOrderSweep(1600, 3, 1000, 2005)
		if err != nil {
			b.Fatal(err)
		}
		once("ordersweep", func() {
			fmt.Println("\nExpansion-order sweep (reproduced):")
			if err := experiments.FormatOrderSweep(rows).Write(os.Stdout); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(rows[len(rows)-1].AvgErrStdPct, "order3-sigma-err-%")
	}
}

func BenchmarkOrderingAblation(b *testing.B) {
	ords := []order.Method{
		order.MethodND, order.MethodRCM, order.MethodMD, order.MethodNatural, order.MethodAMD,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunOrderingAblation(1600, 2005, ords)
		if err != nil {
			b.Fatal(err)
		}
		once("ordering", func() {
			fmt.Println("\nOrdering ablation (reproduced):")
			if err := experiments.FormatOrderingAblation(rows).Write(os.Stdout); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(float64(rows[0].FactorNNZ), "nd-factor-nnz")
	}
}

// BenchmarkOperaOnly isolates the OPERA analysis cost per grid size —
// the "CPU time OPERA" column in pure form.
func BenchmarkOperaOnly(b *testing.B) {
	for _, nodes := range []int{1000, 2600, 6800} {
		nl, err := grid.Build(grid.DefaultSpec(nodes, 2005))
		if err != nil {
			b.Fatal(err)
		}
		sys, err := mna.Build(nl, mna.DefaultSpec())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", sys.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(sys, core.Options{Order: 2, Step: 1e-10, Steps: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on
// the same analysis as BenchmarkOperaOnly (nodes=1000): "disabled"
// leaves Options.Obs nil (the production default — every obs call must
// hit the nil fast path), "enabled" attaches a live tracer with the
// solver metrics installed. Compare disabled against
// BenchmarkOperaOnly/nodes=1000: they must agree within noise (≤1%).
func BenchmarkObsOverhead(b *testing.B) {
	nl, err := grid.Build(grid.DefaultSpec(1000, 2005))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Order: 2, Step: 1e-10, Steps: 20}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(sys, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := obs.New("bench")
			reg := tr.Registry()
			sparse.SetMetrics(reg)
			order.SetMetrics(reg)
			factor.SetMetrics(reg)
			o := opts
			o.Obs = tr
			if _, err := core.Analyze(sys, o); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
		sparse.SetMetrics(nil)
		order.SetMetrics(nil)
		factor.SetMetrics(nil)
	})
}

// BenchmarkMCPerSample isolates the Monte Carlo per-sample cost — the
// quantity whose multiplication by the sample count produces the "CPU
// time Monte" column.
func BenchmarkMCPerSample(b *testing.B) {
	for _, nodes := range []int{1000, 2600, 6800} {
		nl, err := grid.Build(grid.DefaultSpec(nodes, 2005))
		if err != nil {
			b.Fatal(err)
		}
		sys, err := mna.Build(nl, mna.DefaultSpec())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", sys.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RunMC(sys, core.Options{Order: 2, Step: 1e-10, Steps: 20}, 1, int64(i), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCParallel measures the worker-pool scaling of the Monte
// Carlo hot loop on a §6-scale grid. Results are bit-identical across
// the sub-benchmarks (see montecarlo's determinism contract); only the
// wall clock changes.
func BenchmarkMCParallel(b *testing.B) {
	nl, err := grid.Build(grid.DefaultSpec(2600, 2005))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := montecarlo.Run(sys, montecarlo.Options{
					Samples: 32, Step: 1e-10, Steps: 10, Seed: 2005, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.SamplesRun != 32 {
					b.Fatalf("ran %d samples", res.SamplesRun)
				}
			}
		})
	}
}

// BenchmarkDecoupledParallel measures the per-basis fan-out of the
// §5.1 decoupled Galerkin path (the leakage special case: 4 regions at
// order 3 give a 35-function basis, i.e. 35 independent recursions per
// step).
func BenchmarkDecoupledParallel(b *testing.B) {
	spec := grid.DefaultSpec(2600, 2005)
	spec.Regions = 2
	nl, err := grid.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.AnalyzeLeakage(nl, core.LeakageOptions{
					Regions: spec.NumRegions(), SigmaLogI: 0.6, Order: 3,
					Step: 1e-10, Steps: 15, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Galerkin.Decoupled {
					b.Fatal("decoupled path not taken")
				}
			}
		})
	}
}

// BenchmarkMORAblation quantifies the §5.2 MOR suggestion: stochastic
// Galerkin on a PRIMA-reduced model vs the full grid, at the worst-drop
// port.
func BenchmarkMORAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunMORAblation(2600, 12, 2005)
		if err != nil {
			b.Fatal(err)
		}
		once("mor", func() {
			fmt.Println("\nMOR ablation (§5.2, reproduced):")
			if err := experiments.FormatMORAblation(row).Write(os.Stdout); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(float64(row.FullTime)/float64(row.ReduceTime+row.SolveTime), "speedup-x")
		b.ReportMetric(row.MaxSigmaErrPct, "port-sigma-err-%")
	}
}

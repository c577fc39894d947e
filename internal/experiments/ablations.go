package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"opera/internal/core"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/order"
	"opera/internal/report"
)

// OrderSweepRow records accuracy and cost at one expansion order — the
// paper's §5.2 claim that "an order 2/order 3 expansion [is]
// sufficiently accurate" made quantitative.
type OrderSweepRow struct {
	Order        int
	BasisSize    int
	AugmentedN   int
	AvgErrStdPct float64
	OperaTime    time.Duration
}

// RunOrderSweep compares expansion orders 1..maxOrder against a
// high-sample Monte Carlo reference on one grid.
func RunOrderSweep(nodes, maxOrder, mcSamples int, seed int64) ([]OrderSweepRow, error) {
	nl, err := grid.Build(grid.DefaultSpec(nodes, seed))
	if err != nil {
		return nil, err
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		return nil, err
	}
	base := core.Options{Step: 1e-10, Steps: 20}
	mc, _, err := core.RunMC(sys, base, mcSamples, seed+1, nil)
	if err != nil {
		return nil, err
	}
	nominal, err := core.NominalRun(sys, base)
	if err != nil {
		return nil, err
	}
	rows := make([]OrderSweepRow, 0, maxOrder)
	for p := 1; p <= maxOrder; p++ {
		opts := base
		opts.Order = p
		op, err := core.Analyze(sys, opts)
		if err != nil {
			return nil, err
		}
		acc, err := core.CompareWithMC(op, mc, nominal)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OrderSweepRow{
			Order:        p,
			BasisSize:    op.Basis.Size(),
			AugmentedN:   op.Galerkin.AugmentedN,
			AvgErrStdPct: acc.AvgErrStdPct,
			OperaTime:    op.Elapsed,
		})
	}
	return rows, nil
}

// FormatOrderSweep renders the sweep.
func FormatOrderSweep(rows []OrderSweepRow) *report.Table {
	t := report.NewTable("Order p", "Basis N+1", "Augmented n(N+1)", "Ave %Err σ", "CPU (s)")
	for _, r := range rows {
		t.AddRow(r.Order, r.BasisSize, r.AugmentedN,
			fmt.Sprintf("%.2f", r.AvgErrStdPct), fmt.Sprintf("%.3f", r.OperaTime.Seconds()))
	}
	return t
}

// OrderingRow records the Galerkin solve's factorization cost under one
// fill-reducing ordering: the nnz of the factor its steps ran on (one
// eigenbasis step factor's: the grid's variation is separable).
type OrderingRow struct {
	Ordering  order.Method
	FactorNNZ int
	OperaTime time.Duration
}

// RunOrderingAblation compares fill-reducing orderings on the Galerkin
// solve of one grid.
func RunOrderingAblation(nodes int, seed int64, orderings []order.Method) ([]OrderingRow, error) {
	nl, err := grid.Build(grid.DefaultSpec(nodes, seed))
	if err != nil {
		return nil, err
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		return nil, err
	}
	rows := make([]OrderingRow, 0, len(orderings))
	for _, ord := range orderings {
		opts := core.Options{Order: 2, Step: 1e-10, Steps: 20, Ordering: ord}
		op, err := core.Analyze(sys, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OrderingRow{
			Ordering:  ord,
			FactorNNZ: op.Galerkin.FactorNNZ,
			OperaTime: op.Elapsed,
		})
	}
	return rows, nil
}

// FormatOrderingAblation renders the ordering comparison.
func FormatOrderingAblation(rows []OrderingRow) *report.Table {
	t := report.NewTable("Ordering", "nnz(L)", "CPU (s)")
	for _, r := range rows {
		t.AddRow(r.Ordering.String(), r.FactorNNZ, fmt.Sprintf("%.3f", r.OperaTime.Seconds()))
	}
	return t
}

// SpecialCaseResult compares the §5.1 decoupled path against the forced
// coupled solve and the lognormal Monte Carlo baseline.
type SpecialCaseResult struct {
	Nodes          int
	Regions        int
	DecoupledTime  time.Duration
	CoupledTime    time.Duration
	MCTime         time.Duration
	MCSamples      int
	MaxMeanDiff    float64 // decoupled vs coupled (must be ~0)
	AvgErrStdPctMC float64 // OPERA vs MC
}

// RunSpecialCase executes the §5.1 experiment on a generated grid.
func RunSpecialCase(nodes, regions, order, mcSamples int, sigma float64, seed int64) (*SpecialCaseResult, error) {
	spec := grid.DefaultSpec(nodes, seed)
	// Make regions², the grid generator partitions a side into
	// `Regions` stripes per axis.
	spec.Regions = regions
	nl, err := grid.Build(spec)
	if err != nil {
		return nil, err
	}
	lopts := core.LeakageOptions{
		Regions:   spec.NumRegions(),
		SigmaLogI: sigma,
		Order:     order,
		Step:      1e-10,
		Steps:     15,
	}
	dec, err := core.AnalyzeLeakage(nl, lopts)
	if err != nil {
		return nil, err
	}
	if !dec.Galerkin.Decoupled {
		return nil, fmt.Errorf("experiments: decoupled path not taken")
	}
	coup, err := analyzeLeakageCoupled(nl, lopts)
	if err != nil {
		return nil, err
	}
	mc, err := core.RunLeakageMC(nl, lopts, mcSamples, seed+3)
	if err != nil {
		return nil, err
	}
	res := &SpecialCaseResult{
		Nodes:         dec.N,
		Regions:       lopts.Regions,
		DecoupledTime: dec.Elapsed,
		CoupledTime:   coup.Elapsed,
		MCTime:        mc.Elapsed,
		MCSamples:     mcSamples,
	}
	for s := range dec.Mean {
		for i := range dec.Mean[s] {
			if d := abs(dec.Mean[s][i] - coup.Mean[s][i]); d > res.MaxMeanDiff {
				res.MaxMeanDiff = d
			}
		}
	}
	// σ error vs MC at the final step over loaded nodes.
	sLast := lopts.Steps
	maxStd := 0.0
	for i := range mc.Variance[sLast] {
		if sd := sqrt(mc.Variance[sLast][i]); sd > maxStd {
			maxStd = sd
		}
	}
	var sum float64
	var cnt int
	for i := range mc.Variance[sLast] {
		sdMC := sqrt(mc.Variance[sLast][i])
		if sdMC > 0.01*maxStd {
			sum += 100 * abs(sqrt(dec.Variance[sLast][i])-sdMC) / sdMC
			cnt++
		}
	}
	if cnt > 0 {
		res.AvgErrStdPctMC = sum / float64(cnt)
	}
	return res, nil
}

// analyzeLeakageCoupled forces the full augmented solve for the same
// system (ablation reference).
func analyzeLeakageCoupled(nl *netlist.Netlist, lopts core.LeakageOptions) (*core.Result, error) {
	return core.AnalyzeLeakageForceCoupled(nl, lopts)
}

// WriteSpecialCase runs and prints the §5.1 experiment.
func WriteSpecialCase(w io.Writer, nodes, regions, order, mcSamples int, sigma float64, seed int64) (*SpecialCaseResult, error) {
	res, err := RunSpecialCase(nodes, regions, order, mcSamples, sigma, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Special case (§5.1): %d nodes, %d regions, lognormal leakage σ=%.2g\n",
		res.Nodes, res.Regions, sigma)
	t := report.NewTable("Path", "CPU (s)", "Notes")
	t.AddRow("OPERA decoupled (Eq. 27)", fmt.Sprintf("%.3f", res.DecoupledTime.Seconds()),
		"one n-size factorization, N+1 recursions")
	t.AddRow("OPERA coupled", fmt.Sprintf("%.3f", res.CoupledTime.Seconds()),
		fmt.Sprintf("max mean diff vs decoupled %.2g", res.MaxMeanDiff))
	t.AddRow(fmt.Sprintf("Monte Carlo (%d)", res.MCSamples), fmt.Sprintf("%.3f", res.MCTime.Seconds()),
		fmt.Sprintf("OPERA σ err %.2f%%", res.AvgErrStdPctMC))
	if err := t.Write(w); err != nil {
		return nil, err
	}
	return res, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// MORRow compares full-grid OPERA against MOR-accelerated OPERA at the
// observation ports (§5.2's complexity-reduction suggestion).
type MORRow struct {
	Nodes      int
	ReducedK   int
	FullTime   time.Duration
	ReduceTime time.Duration
	SolveTime  time.Duration
	// MaxSigmaErrPct is the worst relative σ deviation at the ports.
	MaxSigmaErrPct float64
}

// RunMORAblation reduces a grid to its worst-drop port neighborhood and
// compares cost and port accuracy against the full stochastic solve.
func RunMORAblation(nodes, moments int, seed int64) (*MORRow, error) {
	nl, err := grid.Build(grid.DefaultSpec(nodes, seed))
	if err != nil {
		return nil, err
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		return nil, err
	}
	opts := core.Options{Order: 2, Step: 1e-10, Steps: 20}
	full, err := core.Analyze(sys, opts)
	if err != nil {
		return nil, err
	}
	node, _ := full.MaxMeanDropNode()
	ports := []int{node}
	red, err := core.AnalyzeReduced(sys, ports, moments, opts)
	if err != nil {
		return nil, err
	}
	row := &MORRow{
		Nodes: sys.N, ReducedK: red.K,
		FullTime: full.Elapsed, ReduceTime: red.ReduceTime, SolveTime: red.SolveTime,
	}
	for s := 0; s <= opts.Steps; s++ {
		sdF := sqrt(full.Variance[s][node])
		sdR := sqrt(red.Variance[s][0])
		if sdF > 1e-5 {
			if e := 100 * abs(sdR-sdF) / sdF; e > row.MaxSigmaErrPct {
				row.MaxSigmaErrPct = e
			}
		}
	}
	return row, nil
}

// FormatMORAblation renders the comparison.
func FormatMORAblation(r *MORRow) *report.Table {
	t := report.NewTable("Model", "States", "CPU (s)", "Max σ err at port")
	t.AddRow("full stochastic Galerkin", r.Nodes, fmt.Sprintf("%.3f", r.FullTime.Seconds()), "—")
	t.AddRow("MOR + stochastic Galerkin", r.ReducedK,
		fmt.Sprintf("%.3f (reduce %.3f + solve %.3f)",
			(r.ReduceTime+r.SolveTime).Seconds(), r.ReduceTime.Seconds(), r.SolveTime.Seconds()),
		fmt.Sprintf("%.2f%%", r.MaxSigmaErrPct))
	return t
}

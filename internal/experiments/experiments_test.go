package experiments

import (
	"bytes"
	"strings"
	"testing"

	"opera/internal/order"
)

// Small, fast configurations keep these integration tests in seconds;
// the full experiment scales are exercised by the benchmarks.

func TestRunTable1Small(t *testing.T) {
	cfg := Table1Config{
		Sizes:     []int{150, 300},
		MCSamples: 120,
		Order:     2,
		Step:      1e-10,
		Steps:     10,
		Seed:      1,
	}
	rows, err := RunTable1(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgErrMeanPct > 1 {
			t.Errorf("grid %d: mean error %g%%", r.Nodes, r.AvgErrMeanPct)
		}
		if r.AvgErrStdPct > 15 {
			t.Errorf("grid %d: std error %g%%", r.Nodes, r.AvgErrStdPct)
		}
		if r.Speedup <= 1 {
			t.Errorf("grid %d: speedup %g — OPERA should beat 120-sample MC", r.Nodes, r.Speedup)
		}
		if r.ThreeSigmaPct < 5 || r.ThreeSigmaPct > 80 {
			t.Errorf("grid %d: ±3σ %g%% of µ0 implausible", r.Nodes, r.ThreeSigmaPct)
		}
	}
	var buf bytes.Buffer
	if err := FormatTable1(rows).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Speedup") {
		t.Error("formatted table missing header")
	}
}

func TestRunFigureSmall(t *testing.T) {
	cfg := FigureConfig{
		Nodes: 300, MCSamples: 400, OperaSamples: 4000, Bins: 16,
		Order: 2, Step: 1e-10, Steps: 10, Seed: 3, NodeRank: 0,
	}
	res, err := RunFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.KS > 0.12 {
		t.Errorf("KS distance %g: OPERA and MC distributions disagree", res.KS)
	}
	sumMC, sumOp := 0.0, 0.0
	for i := range res.MC.Y {
		sumMC += res.MC.Y[i]
		sumOp += res.Opera.Y[i]
	}
	if sumMC < 99.9 || sumOp < 99.9 {
		t.Errorf("percent series don't total 100: %g %g", sumMC, sumOp)
	}
	// Figure 2 variant picks a different node.
	cfg.NodeRank = 1
	res2, err := RunFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Node == res.Node {
		t.Error("figure 2 node should differ from figure 1 node")
	}
}

func TestWriteFigureOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := FigureConfig{
		Nodes: 200, MCSamples: 200, OperaSamples: 2000, Bins: 12,
		Order: 2, Step: 1e-10, Steps: 8, Seed: 5, NodeRank: 0,
	}
	if _, err := WriteFigure(&buf, cfg, "Figure 1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1", "% of occurrences", "drop_pct_vdd", "MC", "OPERA"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestOrderSweep(t *testing.T) {
	rows, err := RunOrderSweep(250, 3, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Basis sizes: C(2+p, p) = 3, 6, 10.
	for i, want := range []int{3, 6, 10} {
		if rows[i].BasisSize != want {
			t.Errorf("order %d basis %d, want %d", i+1, rows[i].BasisSize, want)
		}
	}
	// At this grid's variation level every order's truncation error is
	// below the 400-sample MC reference's own σ noise (~3-4% relative),
	// so a strict order-2 < order-1 ranking is a coin flip on the draw
	// sequence — the noise-free convergence assertion lives in
	// galerkin's quadrature-referenced TestOrder3ImprovesOnOrder2.
	// Here assert that every order lands inside the noise envelope and
	// that escalating the order never degrades the error beyond it.
	for _, r := range rows {
		if r.AvgErrStdPct > 5 {
			t.Errorf("order %d σ error %g%% outside the MC noise envelope", r.Order, r.AvgErrStdPct)
		}
	}
	if rows[1].AvgErrStdPct > rows[0].AvgErrStdPct+2.5 {
		t.Errorf("order 2 σ error %g%% degrades order 1's %g%% beyond MC noise",
			rows[1].AvgErrStdPct, rows[0].AvgErrStdPct)
	}
}

func TestOrderingAblation(t *testing.T) {
	rows, err := RunOrderingAblation(250, 9,
		[]order.Method{order.MethodND, order.MethodRCM, order.MethodNatural})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// ND must beat natural ordering on factor fill.
	var nd, natural int
	for _, r := range rows {
		switch r.Ordering {
		case order.MethodND:
			nd = r.FactorNNZ
		case order.MethodNatural:
			natural = r.FactorNNZ
		}
	}
	if nd == 0 || natural == 0 {
		t.Fatal("missing fill data")
	}
	if nd >= natural {
		t.Errorf("ND fill %d should beat natural %d", nd, natural)
	}
}

func TestSpecialCaseExperiment(t *testing.T) {
	var buf bytes.Buffer
	res, err := WriteSpecialCase(&buf, 250, 2, 3, 400, 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMeanDiff > 1e-9 {
		t.Errorf("decoupled and coupled paths disagree by %g", res.MaxMeanDiff)
	}
	if res.AvgErrStdPctMC > 15 {
		t.Errorf("σ error vs MC %g%%", res.AvgErrStdPctMC)
	}
	if res.DecoupledTime > res.CoupledTime {
		t.Logf("note: decoupled %.3fs vs coupled %.3fs (expected faster at scale)",
			res.DecoupledTime.Seconds(), res.CoupledTime.Seconds())
	}
	if !strings.Contains(buf.String(), "Eq. 27") {
		t.Error("report missing the decoupled path row")
	}
}

func TestMORAblation(t *testing.T) {
	row, err := RunMORAblation(300, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	if row.ReducedK >= row.Nodes/2 {
		t.Errorf("reduction ineffective: K=%d of %d", row.ReducedK, row.Nodes)
	}
	if row.MaxSigmaErrPct > 5 {
		t.Errorf("port σ error %g%% too large", row.MaxSigmaErrPct)
	}
	var buf bytes.Buffer
	if err := FormatMORAblation(row).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MOR") {
		t.Error("missing MOR row")
	}
}

func TestFullConfigsShape(t *testing.T) {
	full := FullTable1()
	if len(full.Sizes) != 7 || full.Sizes[0] != 19181 || full.Sizes[6] != 351838 {
		t.Errorf("FullTable1 sizes %v must match the paper's grids", full.Sizes)
	}
	if full.MCSamples != 1000 {
		t.Errorf("FullTable1 samples %d, want the paper's 1000", full.MCSamples)
	}
	fig := FullFigure(0)
	if fig.Nodes != 19181 {
		t.Errorf("FullFigure nodes %d, want 19181", fig.Nodes)
	}
	def := DefaultTable1()
	if def.MCSamples != 1000 {
		t.Errorf("default table must keep the paper's 1000 samples, got %d", def.MCSamples)
	}
}

func TestWriteTable1(t *testing.T) {
	var buf bytes.Buffer
	cfg := Table1Config{Sizes: []int{120}, MCSamples: 40, Order: 1, Step: 1e-10, Steps: 5, Seed: 3}
	rows, err := WriteTable1(&buf, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("missing title")
	}
}

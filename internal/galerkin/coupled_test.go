package galerkin

import (
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/pce"
	"opera/internal/sparse"
)

// blockDirect is the coupled path's test oracle, independent of the
// kernels under test: the coefficient-major G̃ and G̃ + C̃/h
// (System.AssembleG, AssembleC), each factored once by the simplicial
// factor.Cholesky and stepped once per step with no CG at all — the
// direct solve a handoff or a CG fault moves the window onto. Unknown
// m·n+i is chaos block m at node i, so the blocks read straight out of
// the solution. It returns every step's coefficient blocks.
func blockDirect(t *testing.T, sys *System, opts Options) [][][]float64 {
	t.Helper()
	n, b := sys.N, sys.Basis.Size()
	g, c := sys.AssembleG(), sys.AssembleC()
	chol := func(a *sparse.Matrix) *factor.CholFactor {
		f, err := factor.Cholesky(a, order.Permute(opts.Ordering, a))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	dc, step := chol(g), chol(sparse.Add(1, g, 1/opts.Step, c))
	x, rhs, cx := make([]float64, n*b), make([]float64, n*b), make([]float64, n*b)
	blocks := alloc2(b, n)
	load := func(tm float64) {
		sys.RHS(tm, blocks)
		for m, blk := range blocks {
			copy(rhs[m*n:(m+1)*n], blk)
		}
	}
	snaps := make([][][]float64, opts.Steps+1)
	snap := func(k int) {
		snaps[k] = alloc2(b, n)
		for m, blk := range snaps[k] {
			copy(blk, x[m*n:(m+1)*n])
		}
	}
	load(0)
	dc.SolveTo(x, rhs)
	snap(0)
	for k := 1; k <= opts.Steps; k++ {
		load(float64(k) * opts.Step)
		c.MulVec(cx, x)
		for i := range rhs {
			rhs[i] += cx[i] / opts.Step
		}
		step.SolveTo(x, rhs)
		snap(k)
	}
	return snaps
}

// snapMoments turns coefficient snapshots into per-step means and
// variances.
func snapMoments(snaps [][][]float64) (mean, variance [][]float64) {
	mean = alloc2(len(snaps), len(snaps[0][0]))
	variance = alloc2(len(snaps), len(snaps[0][0]))
	for s, blocks := range snaps {
		copy(mean[s], blocks[0])
		for _, c := range blocks[1:] {
			for i, v := range c {
				variance[s][i] += v * v
			}
		}
	}
	return mean, variance
}

// excitedGrid is smallGrid with its pulse starting at t = 0, so step 1
// already moves the state and prices the cost handoff, and with one
// resistor off-die, so its variation is not separable: CG runs on the
// mean preconditioner and iterates enough for a long window to hand
// off.
func excitedGrid(t *testing.T) *mna.System {
	t.Helper()
	nl := smallGrid()
	nl.Sources[0].Wave.(*netlist.Pulse).Delay = 0
	offDie(nl, len(nl.Resistors))
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// offDie takes every k-th resistor off-die, out of the geometry
// variation: G_G is then no multiple of G₀, so the variation is not
// separable.
func offDie(nl *netlist.Netlist, k int) {
	for i := k - 1; i < len(nl.Resistors); i += k {
		nl.Resistors[i].OnDie = false
	}
}

// mediumSystem lifts a generated grid of about 270 nodes (five
// 64-row Kronecker chunks) at order 2. Its variation is separable, so
// the eigenbasis recursions step it.
func mediumSystem(t *testing.T) *System {
	return mediumSystemWith(t, nil)
}

// mediumOffDieSystem is mediumSystem with every tenth resistor
// off-die. Its variation is not separable: a 20-step window at
// h = 1e-10 stays on CG, a 50-step one hands off to the block factor.
func mediumOffDieSystem(t *testing.T) *System {
	return mediumSystemWith(t, func(nl *netlist.Netlist) { offDie(nl, 10) })
}

// mediumNetlist generates mediumSystem's grid.
func mediumNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := grid.Build(grid.DefaultSpec(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// mediumSystemWith lifts mediumSystem's grid, edited by edit when it
// is non-nil.
func mediumSystemWith(t *testing.T, edit func(*netlist.Netlist)) *System {
	t.Helper()
	nl := mediumNetlist(t)
	if edit != nil {
		edit(nl)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gsys, err := From(sys, pce.NewHermiteBasis(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	return gsys
}

// spanAttr returns attribute key of the first top-level span named
// name in the tracer's dump.
func spanAttr(tr *obs.Tracer, name, key string) string {
	for _, sp := range tr.Dump().Spans {
		if sp.Name == name {
			return sp.Attrs[key]
		}
	}
	return ""
}

func assertMomentsClose(t *testing.T, what string, mean, variance, refMean, refVar [][]float64) {
	t.Helper()
	if d := maxAbsDiff(mean, refMean); d > 1e-8 {
		t.Errorf("%s: means off the block oracle by %g", what, d)
	}
	if d := maxAbsDiff(variance, refVar); d > 1e-10 {
		t.Errorf("%s: variances off the block oracle by %g", what, d)
	}
}

// TestLongWindowHandsOffToBlock runs a window long enough that the
// counts after step 1 favor the block factor: the remaining steps run
// there, the handoff is no fault (no transition, healthy report), the
// result describes the block factor, and the answer matches the
// direct oracle.
func TestLongWindowHandsOffToBlock(t *testing.T) {
	basis := pce.NewHermiteBasis(2, 2)
	gsys, err := From(excitedGrid(t), basis)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 40}
	refMean, refVar := snapMoments(blockDirect(t, gsys, opts))
	tr := obs.New("handoff")
	opts.Obs = tr
	snaps, res := collectCoeffs(t, gsys, opts)
	mean, variance := snapMoments(snaps)

	if res.Factorer != "block-cholesky" {
		t.Fatalf("factorer %q, want the block-cholesky handoff", res.Factorer)
	}
	if got := spanAttr(tr, "transient", "handoff_step"); got != "2" {
		t.Errorf("transient span handoff_step = %q, want 2", got)
	}
	rep := res.Guard()
	if len(rep.Transitions) != 0 || !rep.Healthy() {
		t.Errorf("a cost handoff is no fault: %s, transitions %v", rep.Summary(), rep.Transitions)
	}
	// The facts are the supernodal analysis of the node-major block
	// companion under the solve's node ordering, lifted to its unknowns.
	n, b := gsys.N, basis.Size()
	pattern := unionScalarPattern(gsys)
	comp := assembleBlock(n, b, gsys.GTerms, gsys.CTerms, 1/opts.Step)
	sym := factor.CholAnalyzeSupernodal(comp, expandPerm(order.Permute(opts.Ordering, pattern), b), -1)
	if want := sym.LNNZ(); res.FactorNNZ != want {
		t.Errorf("factor nnz %d, want the block factor's %d", res.FactorNNZ, want)
	}
	if want := sym.FlopEstimate(); res.FactorFlops != want {
		t.Errorf("factor flops %d, want the block factor's %d", res.FactorFlops, want)
	}
	if res.CondEst <= 0 {
		t.Errorf("no condition estimate of the block factor")
	}
	assertMomentsClose(t, "handoff", mean, variance, refMean, refVar)
}

// TestHandoffRule pins the cost rule as a pure function of its counts.
func TestHandoffRule(t *testing.T) {
	// The model's counts on a 2,570-node order-2 grid: F·B³ =
	// 541,932,768 (F = 2,508,948) and nnz(L) 49,802 per chaos pair, from
	// the scalar union pattern. The supernodal kernel that factors the
	// block companion measures 527,260,856 flops and nnz(L) 1,677,904
	// there; the model prices the block side 3–12% high.
	base := handoffCounts{
		n: 2570, b: 6, cgIters: 6,
		precondLNNZ: 49802, blockLNNZ: 49802,
		kronMACs: 200526, blockFlops: 2508948,
	}
	per := func(c handoffCounts) (block, cg float64) {
		b := float64(c.b)
		block = 2 * float64(c.blockLNNZ) * b * b
		cg = float64(c.cgIters) * (2*float64(c.precondLNNZ)*b + float64(c.kronMACs) + 5*float64(c.n)*b)
		return block, cg
	}
	blockStep, cgStep := per(base)
	fixed := float64(base.blockFlops) * 216
	if fixed != 541932768 {
		t.Fatalf("F·B³ = %v", fixed)
	}
	// The window length where the block factor starts paying off.
	even := fixed / (cgStep - blockStep)
	if even < 20 || even > 399 {
		t.Fatalf("break-even after %.0f steps; the cases below assume 20..399", even)
	}
	for _, tc := range []struct {
		name string
		mod  func(*handoffCounts)
		want bool
	}{
		{"short window", func(c *handoffCounts) { c.stepsLeft = 19 }, false},
		{"just short of break-even", func(c *handoffCounts) { c.stepsLeft = int(math.Floor(even)) }, false},
		{"just past break-even", func(c *handoffCounts) { c.stepsLeft = int(math.Ceil(even)) }, true},
		{"long window", func(c *handoffCounts) { c.stepsLeft = 399 }, true},
		{"no steps left", func(c *handoffCounts) { c.stepsLeft = 0 }, false},
		{"CG converged without iterating", func(c *handoffCounts) { c.stepsLeft, c.cgIters = 399, 0 }, false},
		{"one iteration per step", func(c *handoffCounts) { c.stepsLeft, c.cgIters = 100000, 1 }, false},
		// At B = 64 the values of nnz(L) = 131,072 fill exactly 4 GiB.
		{"block factor at 4 GiB", func(c *handoffCounts) {
			c.stepsLeft, c.b, c.cgIters = 100000, 64, 500
			c.blockLNNZ = maxBlockFactorBytes / (8 * 64 * 64)
		}, true},
		{"block factor above 4 GiB", func(c *handoffCounts) {
			c.stepsLeft, c.b, c.cgIters = 100000, 64, 500
			c.blockLNNZ = maxBlockFactorBytes/(8*64*64) + 1
		}, false},
	} {
		c := base
		tc.mod(&c)
		if got := c.blockCheaper(); got != tc.want {
			t.Errorf("%s (%+v): blockCheaper = %v, want %v", tc.name, c, got, tc.want)
		}
	}
}

// TestKronApplyDeterminism checks the Kronecker-form operators against
// the assembled node-major block matrix — MulVec to 1e-14 of
// ‖y‖∞, normInf to 1e-14 relative — and that MulVec is bitwise
// identical at every worker count. The system carries three non-identity
// couplings (linear G, linear C and a quadratic G term).
func TestKronApplyDeterminism(t *testing.T) {
	gsys := mediumSystem(t)
	basis := gsys.Basis
	quad, err := basis.ProjectFunc(func(xi []float64) float64 { return xi[0]*xi[0] - 1 }, 5)
	if err != nil {
		t.Fatal(err)
	}
	gsys.GTerms = append(gsys.GTerms, Term{Coupling: basis.CouplingExpansion(quad), A: gsys.GTerms[1].A.Clone().Scale(0.3)})
	n, b := gsys.N, basis.Size()
	x := make([]float64, n*b)
	for i := range x {
		x[i] = math.Sin(float64(i)) + 0.5
	}
	for _, tc := range []struct {
		name   string
		g, c   []Term
		cScale float64
	}{
		{"G", gsys.GTerms, nil, 0},
		{"C", nil, gsys.CTerms, 1},
		{"G+C/h", gsys.GTerms, gsys.CTerms, 1 / 1e-10},
	} {
		ref := assembleBlock(n, b, tc.g, tc.c, tc.cScale)
		want := make([]float64, n*b)
		ref.MulVec(want, x)
		scale := numguard.NormInf(want)
		var first []float64
		for _, w := range []int{1, 2, 3, 4, 7} {
			op := newKronOp(n, b, w).add(tc.g, 1).add(tc.c, tc.cScale)
			y := make([]float64, n*b)
			op.MulVec(y, x)
			if first == nil {
				first = y
				for i := range y {
					if d := math.Abs(y[i] - want[i]); d > 1e-14*scale {
						t.Fatalf("%s: y[%d] = %.17g, assembled %.17g", tc.name, i, y[i], want[i])
					}
				}
				if got, want := op.normInf(), ref.NormInf(); math.Abs(got-want) > 1e-14*want {
					t.Errorf("%s: normInf %.17g, assembled %.17g", tc.name, got, want)
				}
				continue
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(first[i]) {
					t.Fatalf("%s workers=%d: y[%d] = %.17g, 1 worker %.17g", tc.name, w, i, y[i], first[i])
				}
			}
		}
	}
}

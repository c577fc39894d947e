package galerkin

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"opera/internal/mna"
	"opera/internal/numguard"
	"opera/internal/numguard/inject"
	"opera/internal/pce"
	"opera/internal/sparse"
)

// The tests in this file drive the numguard escalation ladder through
// every transition deterministically, via the fault-injection hooks:
// the coupled CG path's true-residual check and its escalation to the
// block ladder, refinement recovery, Cholesky→LU escalation,
// mid-transient NaN step retry, and full-ladder exhaustion. The CG
// faults run on an off-die grid (offDieSmall), whose variation is not
// separable; the block-rung faults first force the CG → block
// escalation with a NaN in one CG solve. Each asserts the hard
// invariant that no injected fault ever yields NaN/Inf chaos
// coefficients without an accompanying error.

// TestLadderShapes pins one Cholesky rung per ladder, named for the
// matrix shape, followed by LU and CG; forceLU drops it.
func TestLadderShapes(t *testing.T) {
	a := sparse.FromDense([][]float64{{2, -1}, {-1, 2}})
	bm := assembleBlock(2, 2, []Term{{Coupling: sparse.Identity(2), A: a}}, nil, 0)
	names := func(rungs []numguard.Rung) []string {
		var out []string
		for _, r := range rungs {
			out = append(out, r.Name)
		}
		return out
	}
	cfg := numguard.Config{}
	for _, tc := range []struct {
		name  string
		rungs []numguard.Rung
		want  []string
	}{
		{"scalar", scalarRungs(a, nil, nil, 1, cfg, false, nil), []string{"supernodal", "lu", "cg+ic0"}},
		{"scalar/forceLU", scalarRungs(a, nil, nil, 1, cfg, true, nil), []string{"lu", "cg+ic0"}},
		{"block", blockRungs(bm, nil, 2, 1, cfg, false, nil), []string{"block-cholesky", "lu", "cg+ic0"}},
		{"block/forceLU", blockRungs(bm, nil, 2, 1, cfg, true, nil), []string{"lu", "cg+ic0"}},
	} {
		if got := names(tc.rungs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s ladder %v, want %v", tc.name, got, tc.want)
		}
	}
}

// offDieSmall is smallGrid with its last resistor off-die: the
// variation is not separable, so CG serves it, and its pulse still
// starts at step 4.
func offDieSmall(t *testing.T) *mna.System {
	t.Helper()
	nl := smallGrid()
	offDie(nl, len(nl.Resistors))
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func maxAbsDiff(a, b [][]float64) float64 {
	worst := 0.0
	for s := range a {
		for i := range a[s] {
			if d := math.Abs(a[s][i] - b[s][i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestInjectDriftRecoveredByRefinement(t *testing.T) {
	sys := offDieSmall(t)
	// Verify every step: a consistent drift on unverified steps would
	// otherwise pass through on the default cadence by design.
	opts := Options{Step: tStep, Steps: 10, Guard: numguard.Config{VerifyEvery: 1}}
	refMean, refVar, _ := runGalerkin(t, sys, 2, opts)

	restore := inject.Enable(&inject.Faults{
		SolveNaN:   map[int]string{1: "cg+mean-precond"},
		SolveDrift: map[string]float64{"block-cholesky": 1e-3},
	})
	t.Cleanup(restore)
	mean, variance, res := runGalerkin(t, sys, 2, opts)

	// A 1e-3 consistent drift is far above the 1e-8 residual tolerance
	// but well within refinement reach (the error contracts by ~1e-3 per
	// sweep), so the run must stay on the block ladder's first rung and
	// refine.
	if res.Factorer != "cg+mean-precond→block-cholesky" {
		t.Errorf("drift must not escalate past block-cholesky, got factorer %q", res.Factorer)
	}
	rep := res.Guard()
	if rep == nil || rep.Refinements == 0 || rep.RefinedSolves == 0 {
		t.Fatalf("refinement not engaged: %+v", rep)
	}
	if len(rep.Transitions) != 1 || rep.Transitions[0].From != "cg+mean-precond" {
		t.Errorf("want only the forced CG escalation, got %+v", rep.Transitions)
	}
	if d := maxAbsDiff(mean, refMean); d > 1e-6 {
		t.Errorf("refined means off by %g", d)
	}
	if d := maxAbsDiff(variance, refVar); d > 1e-8 {
		t.Errorf("refined variances off by %g", d)
	}
}

func TestInjectCholeskyBreakdownEscalatesToLU(t *testing.T) {
	sys := offDieSmall(t)
	opts := Options{Step: tStep, Steps: 10}
	refMean, _, _ := runGalerkin(t, sys, 2, opts)

	restore := inject.Enable(&inject.Faults{
		SolveNaN:    map[int]string{1: "cg+mean-precond"},
		FailPrepare: map[string]int{"block-cholesky": -1},
	})
	t.Cleanup(restore)
	mean, _, res := runGalerkin(t, sys, 2, opts)

	if res.Factorer != "cg+mean-precond→lu" {
		t.Errorf("factorer %q, want cg+mean-precond→lu", res.Factorer)
	}
	rep := res.Guard()
	if rep == nil || len(rep.Transitions) != 2 {
		t.Fatalf("expected cg+mean-precond→block-cholesky→lu, got %+v", rep)
	}
	if tr := rep.Transitions[0]; tr.From != "cg+mean-precond" || tr.To != "block-cholesky" || tr.Step != 1 {
		t.Errorf("transition %+v, want cg+mean-precond→block-cholesky at step 1", tr)
	}
	if tr := rep.Transitions[1]; tr.From != "block-cholesky" || tr.To != "lu" || tr.Step != 1 {
		t.Errorf("transition %+v, want block-cholesky→lu at step 1", tr)
	}
	if d := maxAbsDiff(mean, refMean); d > 1e-8 {
		t.Errorf("LU-rung means off by %g", d)
	}
}

func TestInjectNaNMidTransientRetriesStep(t *testing.T) {
	sys := offDieSmall(t)
	opts := Options{Step: tStep, Steps: 10}
	refMean, _, _ := runGalerkin(t, sys, 2, opts)

	restore := inject.Enable(&inject.Faults{
		SolveNaN: map[int]string{2: "cg+mean-precond", 5: "block-cholesky"},
	})
	t.Cleanup(restore)
	mean, _, res := runGalerkin(t, sys, 2, opts)

	rep := res.Guard()
	if rep == nil || rep.NaNEvents != 2 {
		t.Fatalf("NaN events not recorded (want the CG one and the block one): %+v", rep)
	}
	if rep.StepRetries < 2 {
		t.Errorf("steps 2 and 5 were not retried: %+v", rep)
	}
	found := false
	for _, tr := range rep.Transitions {
		if tr.Step == 5 && tr.From == "block-cholesky" && tr.To == "lu" {
			found = true
		}
	}
	if !found {
		t.Errorf("no block-cholesky→lu transition at step 5: %+v", rep.Transitions)
	}
	// The retried step (and all later ones, now on the LU rung) must
	// still carry the correct verified solution.
	if d := maxAbsDiff(mean, refMean); d > 1e-8 {
		t.Errorf("post-retry means off by %g", d)
	}
}

func TestInjectExhaustedLadderReturnsDiagnosis(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	basis := pce.NewHermiteBasis(2, 2)
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}

	restore := inject.Enable(&inject.Faults{
		FailPrepare: map[string]int{"": -1},
	})
	t.Cleanup(restore)
	_, err = Solve(gsys, Options{Step: tStep, Steps: 5}, func(step int, _ float64, coeffs [][]float64) {
		if !numguard.FiniteBlocks(coeffs) {
			t.Fatalf("step %d: non-finite coefficients delivered despite exhaustion", step)
		}
	})
	if err == nil {
		t.Fatal("exhausted ladder returned nil error")
	}
	var d *numguard.Diagnosis
	if !errors.As(err, &d) {
		t.Fatalf("error %T (%v) does not wrap *numguard.Diagnosis", err, err)
	}
}

func TestInjectNaNNeverEscapesWithoutError(t *testing.T) {
	// Poison a mid-transient solve AND break every higher rung: the run
	// cannot recover, so Solve must fail with a Diagnosis at that step —
	// never deliver poisoned coefficients as success.
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	basis := pce.NewHermiteBasis(2, 2)
	gsys, err := From(sys, basis)
	if err != nil {
		t.Fatal(err)
	}

	restore := inject.Enable(&inject.Faults{
		SolveNaN:    map[int]string{3: ""},
		FailPrepare: map[string]int{"block-cholesky": -1, "lu": -1, "cg+ic0": -1},
	})
	t.Cleanup(restore)
	_, err = Solve(gsys, Options{Step: tStep, Steps: 10}, func(step int, _ float64, coeffs [][]float64) {
		if !numguard.FiniteBlocks(coeffs) {
			t.Fatalf("step %d: non-finite coefficients escaped without error", step)
		}
		if step >= 3 {
			t.Fatalf("step %d delivered after the unrecoverable fault at step 3", step)
		}
	})
	if err == nil {
		t.Fatal("unrecoverable NaN returned nil error")
	}
	var d *numguard.Diagnosis
	if !errors.As(err, &d) {
		t.Fatalf("error %T (%v) does not wrap *numguard.Diagnosis", err, err)
	}
	if d.Step != 3 {
		t.Errorf("diagnosis step %d, want 3", d.Step)
	}
}

func TestInjectDecoupledPathEscalates(t *testing.T) {
	// The §5.1 decoupled path runs scalar ladders; breaking their
	// supernodal rung must land both the companion and DC ladders on LU.
	nl := smallGrid()
	for i := range nl.Resistors {
		nl.Resistors[i].OnDie = false
	}
	for i := range nl.Pads {
		nl.Pads[i].OnDie = false
	}
	for i := range nl.Caps {
		nl.Caps[i].GateFrac = 0
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 10}
	refMean, _, refRes := runGalerkin(t, sys, 1, opts)
	if !refRes.Decoupled {
		t.Fatal("reference run did not take the decoupled path")
	}

	restore := inject.Enable(&inject.Faults{
		FailPrepare: map[string]int{"supernodal": -1},
	})
	t.Cleanup(restore)
	mean, _, res := runGalerkin(t, sys, 1, opts)
	if !res.Decoupled {
		t.Fatal("faulted run did not take the decoupled path")
	}
	if res.Factorer != "lu" {
		t.Errorf("factorer %q, want lu", res.Factorer)
	}
	if d := maxAbsDiff(mean, refMean); d > 1e-8 {
		t.Errorf("decoupled LU means off by %g", d)
	}
}

func TestInjectIterativePathEscalatesToDirect(t *testing.T) {
	// A NaN injected into the coupled CG solve mid-transient must hand
	// the step to the block ladder and keep the rest of the run there.
	sys := offDieSmall(t)
	opts := Options{Step: tStep, Steps: 10}
	refMean, _, _ := runGalerkin(t, sys, 2, opts)

	restore := inject.Enable(&inject.Faults{
		SolveNaN: map[int]string{4: "cg+mean-precond"},
	})
	t.Cleanup(restore)
	mean, _, res := runGalerkin(t, sys, 2, opts)

	if !strings.HasPrefix(res.Factorer, "cg+mean-precond→") {
		t.Errorf("factorer %q does not record the escalation", res.Factorer)
	}
	rep := res.Guard()
	if rep == nil || rep.NaNEvents != 1 || rep.StepRetries < 1 {
		t.Fatalf("escalation telemetry wrong: %+v", rep)
	}
	found := false
	for _, tr := range rep.Transitions {
		if tr.Step == 4 && tr.From == "cg+mean-precond" {
			found = true
		}
	}
	if !found {
		t.Errorf("no cg+mean-precond transition at step 4: %+v", rep.Transitions)
	}
	if d := maxAbsDiff(mean, refMean); d > 1e-7 {
		t.Errorf("escalated iterative means off by %g", d)
	}
}

// TestInjectDriftFailsTrueResidual is the true-residual contract: CG
// answers drifted by 1e-3 still report a recurrence residual below
// tolerance, so only the true scaled residual catches them. The DC
// solve, always verified, fails it and hands the window to the block
// ladder, whose answers match the direct oracle.
func TestInjectDriftFailsTrueResidual(t *testing.T) {
	sys := offDieSmall(t)
	gsys, err := From(sys, pce.NewHermiteBasis(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Step: tStep, Steps: 10}
	refMean, refVar := snapMoments(blockDirect(t, gsys, opts))

	restore := inject.Enable(&inject.Faults{
		SolveDrift: map[string]float64{"cg+mean-precond": 1e-3},
	})
	t.Cleanup(restore)
	snaps, res := collectCoeffs(t, gsys, opts)

	if res.Factorer != "cg+mean-precond→block-cholesky" {
		t.Errorf("factorer %q, want the escalation to block-cholesky", res.Factorer)
	}
	rep := res.Guard()
	if len(rep.Transitions) != 1 {
		t.Fatalf("want one CG escalation, got %+v", rep.Transitions)
	}
	if tr := rep.Transitions[0]; tr.From != "cg+mean-precond" || tr.To != "block-cholesky" ||
		tr.Step != 0 || !strings.Contains(tr.Reason, "true residual") {
		t.Errorf("transition %+v, want the DC solve's true residual to fail", tr)
	}
	if rep.Healthy() || rep.MaxResidual > 1e-8 {
		t.Errorf("report %s: the drift must show, and every accepted residual must meet tolerance", rep.Summary())
	}
	mean, variance := snapMoments(snaps)
	assertMomentsClose(t, "drifted CG", mean, variance, refMean, refVar)
}

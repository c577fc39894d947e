package galerkin

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"opera/internal/cancel"
	"opera/internal/mna"
	"opera/internal/obs"
	"opera/internal/pce"
)

// cancelTestSystem builds the Galerkin lift of the small test grid;
// rhsOnly strips the operator variation (no on-die metal or gate-cap
// sensitivity) so the decoupled Eq. 27 path is selected.
func cancelTestSystem(t *testing.T, rhsOnly bool) *System {
	t.Helper()
	nl := smallGrid()
	if rhsOnly {
		for i := range nl.Resistors {
			nl.Resistors[i].OnDie = false
		}
		for i := range nl.Pads {
			nl.Pads[i].OnDie = false
		}
		for i := range nl.Caps {
			nl.Caps[i].GateFrac = 0
		}
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

// TestSolveCancelAllPaths cancels each way a solve steps from inside
// the visit callback: the eigenbasis recursions of an RHS-only system,
// the coupled path on its block factor after a cost handoff, and the
// coupled path while CG still serves (a separable system forced onto
// it, so the mean preconditioner's CG iterates). It checks every one stops within a step with the
// structured error, leaks no worker goroutines, and leaves the system
// solvable again (factors and the numguard ladder are not poisoned by
// the abort).
func TestSolveCancelAllPaths(t *testing.T) {
	// The excited grid's pulse starts at t = 0 and its variation is not
	// separable, so the 200-step window hands off to the block factor
	// after step 1; the small grid's steps 1–4 are quiet and CG serves
	// them without a handoff.
	excited := func(t *testing.T) *System {
		gsys, err := From(excitedGrid(t), pce.NewHermiteBasis(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return gsys
	}
	cases := []struct {
		name    string
		stage   string
		sys     func(*testing.T) *System
		opts    Options
		handoff bool // the cancel lands on the block factor
	}{
		{"decoupled", "galerkin.decoupled", func(t *testing.T) *System { return cancelTestSystem(t, true) }, Options{}, false},
		{"coupled", "galerkin.coupled", excited, Options{ForceCoupled: true}, true},
		{"iterative", "galerkin.coupled", func(t *testing.T) *System { return cancelTestSystem(t, false) }, Options{ForceCoupled: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gsys := tc.sys(t)
			base := runtime.NumGoroutine()
			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			tr := obs.New("cancel")
			opts := tc.opts
			opts.Step, opts.Steps, opts.Ctx, opts.Workers, opts.Obs = tStep, 200, ctx, 4, tr
			last := -1
			_, err := Solve(gsys, opts, func(step int, _ float64, _ [][]float64) {
				last = step
				if step == 2 {
					stop()
				}
			})
			if !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("want error wrapping cancel.ErrCanceled, got %v", err)
			}
			var ce *cancel.Error
			if !errors.As(err, &ce) || ce.Stage != tc.stage {
				t.Errorf("want *cancel.Error with stage %s, got %v", tc.stage, err)
			}
			if last > 3 {
				t.Errorf("solve continued to step %d after cancel at step 2", last)
			}
			if got := spanAttr(tr, "transient", "handoff_step") != ""; got != tc.handoff {
				t.Errorf("handed off to the block factor before the cancel: %v, want %v", got, tc.handoff)
			}
			waitForGoroutines(t, base)

			// The same system must solve cleanly afterwards: the abort
			// left no half-updated state behind.
			opts.Ctx = nil
			opts.Steps = 5
			res, err := Solve(gsys, opts, nil)
			if err != nil {
				t.Fatalf("rerun after cancel: %v", err)
			}
			if g := res.Guard(); g != nil && !g.Healthy() {
				t.Errorf("rerun ladder unhealthy after cancel: %s", g.Summary())
			}
		})
	}
}

// TestSolveCancelBeforeStart fails fast under a dead context, before
// any factorization work.
func TestSolveCancelBeforeStart(t *testing.T) {
	gsys := cancelTestSystem(t, false)
	ctx, stop := context.WithCancel(context.Background())
	stop()
	_, err := Solve(gsys, Options{Step: tStep, Steps: 5, Ctx: ctx}, nil)
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
}

func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now, %d before", runtime.NumGoroutine(), base)
}

package numguard

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"opera/internal/numguard/inject"
)

// batchSolver gives a single-vector solver a SolveMany, counting the
// batched calls so the tests can tell the batched path ran.
type batchSolver struct {
	Solver
	batches *int
}

func (s batchSolver) SolveMany(x, b [][]float64) {
	*s.batches++
	for c := range b {
		s.SolveTo(x[c], b[c])
	}
}

// ladderOutcome is everything a run of the ladder leaves behind.
type ladderOutcome struct {
	x           [][]float64
	transitions []Transition
	verified    int
	refinements int
	refined     int
	nan         int
	retries     int
	err         error
}

// runColumns solves the columns at each step, either one Solve per
// column or one SolveMany per step, on a fresh ladder whose first rung
// (when batched) is a ManySolver.
func runColumns(t *testing.T, batched bool, cfg Config, faults func() *inject.Faults, rungs func(batches *int) []Rung, steps []int, b [][]float64) (ladderOutcome, int) {
	t.Helper()
	restore := inject.Enable(faults())
	defer restore()
	batches := 0
	rep := &Report{}
	lad := NewLadder("step", cfg, spd2, spd2.normInf(), rungs(&batches), rep)
	x := make([][]float64, len(b))
	for c := range x {
		x[c] = make([]float64, 2)
	}
	var err error
	for _, step := range steps {
		if batched {
			err = lad.SolveMany(step, x, b)
		} else {
			for c := range b {
				if err = lad.Solve(step, x[c], b[c]); err != nil {
					break
				}
			}
		}
		if err != nil {
			break
		}
	}
	return ladderOutcome{
		x: x, transitions: rep.Transitions, verified: rep.Verified,
		refinements: rep.Refinements, refined: rep.RefinedSolves,
		nan: rep.NaNEvents, retries: rep.StepRetries, err: err,
	}, batches
}

// TestSolveManyMatchesSolve drives a batched ladder through every
// fault the inject harness offers and checks it ends exactly where the
// same columns through Solve end: same transitions, refinement and
// verification counts, same solutions, and the same *Diagnosis when
// the ladder runs out.
func TestSolveManyMatchesSolve(t *testing.T) {
	b := [][]float64{{5, 4}, {1, -2}, {0, 3}, {-7, 1}, {2, 2}}
	exact := func(batches *int) Rung {
		return Rung{Name: "supernodal", Prepare: func() (Solver, error) {
			return batchSolver{Solver: SolverFunc(spd2Solve), batches: batches}, nil
		}}
	}
	single := func(name string) Rung {
		return Rung{Name: name, Prepare: func() (Solver, error) { return SolverFunc(spd2Solve), nil }}
	}
	threeRungs := func(batches *int) []Rung {
		return []Rung{exact(batches), single("cholesky"), single("lu")}
	}
	cases := []struct {
		name   string
		cfg    Config
		faults func() *inject.Faults
		steps  []int
		// wantTransitions is the number of rung transitions the
		// scenario must produce, so a fault that fails to fire is a
		// failure rather than a vacuous match.
		wantTransitions int
		exhausted       bool
	}{
		{"healthy", Config{}, func() *inject.Faults { return &inject.Faults{} }, []int{0, 1, 2, 8}, 0, false},
		{"nan-verified-step", Config{}, func() *inject.Faults {
			return &inject.Faults{SolveNaN: map[int]string{1: "supernodal"}}
		}, []int{0, 1, 2, 8}, 1, false},
		{"nan-unverified-step", Config{}, func() *inject.Faults {
			return &inject.Faults{SolveNaN: map[int]string{3: "supernodal"}}
		}, []int{0, 3, 8}, 1, false},
		{"drift-refined", Config{}, func() *inject.Faults {
			return &inject.Faults{SolveDrift: map[string]float64{"supernodal": 1e-3}}
		}, []int{0, 1, 2, 8}, 0, false},
		{"drift-escalates", Config{}, func() *inject.Faults {
			return &inject.Faults{SolveDrift: map[string]float64{"supernodal": 0.5}}
		}, []int{0, 1, 8}, 1, false},
		{"fail-prepare", Config{}, func() *inject.Faults {
			return &inject.Faults{FailPrepare: map[string]int{"supernodal": 1}}
		}, []int{0, 1}, 1, false},
		{"exhausted", Config{VerifyEvery: 1}, func() *inject.Faults {
			return &inject.Faults{SolveDrift: map[string]float64{"": 0.9}}
		}, []int{0, 1}, 3, true},
		{"fail-every-prepare", Config{}, func() *inject.Faults {
			return &inject.Faults{FailPrepare: map[string]int{"": -1}}
		}, []int{0}, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := runColumns(t, false, tc.cfg, tc.faults, threeRungs, tc.steps, b)
			got, batches := runColumns(t, true, tc.cfg, tc.faults, threeRungs, tc.steps, b)
			if len(want.transitions) != tc.wantTransitions {
				t.Fatalf("Solve made %d transitions, scenario expects %d: %+v",
					len(want.transitions), tc.wantTransitions, want.transitions)
			}
			// Only a failed supernodal prepare keeps the ManySolver
			// rung from serving a batch.
			if prepared := tc.faults().FailPrepare == nil; prepared != (batches > 0) {
				t.Errorf("SolveMany batches = %d with the batched rung prepared = %v", batches, prepared)
			}
			if !reflect.DeepEqual(got.transitions, want.transitions) {
				t.Errorf("transitions:\n got  %+v\n want %+v", got.transitions, want.transitions)
			}
			gotCounts := fmt.Sprint(got.verified, got.refinements, got.refined, got.nan, got.retries)
			wantCounts := fmt.Sprint(want.verified, want.refinements, want.refined, want.nan, want.retries)
			if gotCounts != wantCounts {
				t.Errorf("verified/refinements/refined solves/NaN/retries = %s, Solve gives %s", gotCounts, wantCounts)
			}
			if tc.exhausted {
				var dg, dw *Diagnosis
				if !errors.As(got.err, &dg) || !errors.As(want.err, &dw) {
					t.Fatalf("want a *Diagnosis from both, got %v and %v", got.err, want.err)
				}
				if dg.Stage != dw.Stage || dg.Step != dw.Step || dg.Rung != dw.Rung ||
					!reflect.DeepEqual(dg.Residuals, dw.Residuals) {
					t.Errorf("diagnosis %+v, Solve gives %+v", dg, dw)
				}
				return
			}
			if got.err != nil || want.err != nil {
				t.Fatalf("errors: batched %v, single %v", got.err, want.err)
			}
			for c := range b {
				for i := range b[c] {
					if math.Float64bits(got.x[c][i]) != math.Float64bits(want.x[c][i]) {
						t.Errorf("column %d x[%d] = %.17g, Solve gives %.17g", c, i, got.x[c][i], want.x[c][i])
					}
				}
			}
		})
	}
}

// TestSolveManyLoopsSingleSolvers checks the fallback: a rung without
// SolveMany (scalar, LU, CG) serves a batch column by column, verified
// like Solve.
func TestSolveManyLoopsSingleSolvers(t *testing.T) {
	rep := &Report{}
	lad := NewLadder("step", Config{VerifyEvery: 1}, spd2, spd2.normInf(),
		[]Rung{{Name: "exact", Prepare: func() (Solver, error) { return SolverFunc(spd2Solve), nil }}}, rep)
	b := [][]float64{{5, 4}, {1, 1}, {-3, 2}}
	x := [][]float64{make([]float64, 2), make([]float64, 2), make([]float64, 2)}
	if err := lad.SolveMany(4, x, b); err != nil {
		t.Fatal(err)
	}
	for c := range b {
		want := make([]float64, 2)
		spd2Solve(want, b[c])
		if x[c][0] != want[0] || x[c][1] != want[1] {
			t.Errorf("column %d: got %v want %v", c, x[c], want)
		}
	}
	if rep.Verified != len(b) {
		t.Errorf("Verified = %d, want %d", rep.Verified, len(b))
	}
	if err := lad.SolveMany(5, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

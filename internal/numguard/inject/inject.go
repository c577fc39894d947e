// Package inject provides deterministic fault injection for the
// numerical-robustness layer. It exists so tests can force every
// escalation-ladder transition — factorization breakdowns, solves that
// return NaN mid-transient, factors whose accuracy has drifted — rather
// than hoping for a pathological matrix. Production code never enables
// it; the hooks are atomically-loaded nil checks costing one load per
// solve. Enable faults only from tests, and always restore.
package inject

import (
	"sync"
	"sync/atomic"
)

// Faults describes the active fault set. Maps are keyed by rung name
// ("eigenbasis", "cg+mean-precond", "supernodal", "block-cholesky",
// "lu", "cg+ic0"); the empty string matches every rung. "supernodal"
// and "block-cholesky" run the same kernel, the latter on the coupled
// path's block companion only, so a key fails one ladder's Cholesky
// and not the other's.
type Faults struct {
	// FailPrepare[rung] = k fails the next k factorization attempts of
	// that rung (k < 0: fail forever).
	FailPrepare map[string]int
	// SolveNaN[step] = rung poisons the first solve of that transient
	// step on that rung with NaN, then clears itself — the step retries
	// cleanly on the next rung.
	SolveNaN map[int]string
	// SolveDrift[rung] applies a consistent relative error of the given
	// magnitude to every solve on that rung, emulating a factor whose
	// diagonal has drifted toward singularity: the solver keeps
	// returning the same slightly-wrong answer until refinement or
	// escalation compensates.
	SolveDrift map[string]float64

	mu sync.Mutex
}

var active atomic.Pointer[Faults]

// Enable installs the fault set and returns a restore function. Tests
// must call the restore (typically via t.Cleanup).
func Enable(f *Faults) (restore func()) {
	active.Store(f)
	return func() { active.Store(nil) }
}

// Enabled reports whether any faults are active.
func Enabled() bool { return active.Load() != nil }

// FailPrepare reports whether the factorization of the given rung
// should be made to fail, consuming one failure budget.
func FailPrepare(rung string) bool {
	f := active.Load()
	if f == nil || f.FailPrepare == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, key := range []string{rung, ""} {
		k, ok := f.FailPrepare[key]
		if !ok || k == 0 {
			continue
		}
		if k > 0 {
			f.FailPrepare[key] = k - 1
		}
		return true
	}
	return false
}

// CorruptSolve mutates a freshly computed solution according to the
// active faults. rung is the rung that produced x; step the transient
// step being solved.
func CorruptSolve(rung string, step int, x []float64) {
	f := active.Load()
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if want, ok := f.SolveNaN[step]; ok && (want == rung || want == "") {
		nan := 0.0
		nan /= nan
		for i := range x {
			x[i] = nan
		}
		delete(f.SolveNaN, step)
		return
	}
	for _, key := range []string{rung, ""} {
		if eps, ok := f.SolveDrift[key]; ok && eps != 0 {
			for i := range x {
				if i&1 == 0 {
					x[i] *= 1 + eps
				} else {
					x[i] *= 1 - eps
				}
			}
			return
		}
	}
}

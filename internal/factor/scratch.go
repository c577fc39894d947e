package factor

import "sync"

// solveScratch pools the permutation/work vectors of the SolveTo
// convenience wrappers, and the interleaved blocks of SolveMany and
// the block solves, so the steady state of a transient loop — the
// same factor solved thousands of times — performs no per-solve
// allocations. Callers that want explicit control use the
// SolveToWithScratch variants instead. The pool stores *[]float64
// (pointer, not slice) so Put itself does not allocate an interface
// box.
var solveScratch sync.Pool

// getScratch returns a pooled vector of length n, allocating only when
// the pool is empty or holds a shorter vector.
func getScratch(n int) *[]float64 {
	if v, _ := solveScratch.Get().(*[]float64); v != nil {
		if cap(*v) >= n {
			*v = (*v)[:n]
			return v
		}
	}
	v := make([]float64, n)
	return &v
}

func putScratch(v *[]float64) { solveScratch.Put(v) }

package factor

import "sync"

// solveScratch pools the permutation/work vectors of the SolveTo
// convenience wrappers and the interleaved blocks of SolveMany, so the
// steady state of a transient loop — the same factor solved thousands
// of times — performs no per-solve allocations. Callers that want
// explicit control use the SolveToWithScratch variants instead. The
// pool stores *[]float64 (pointer, not slice) so Put itself does not
// allocate an interface box.
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

// updateScratch pools the supernodal update workspaces, so a worker
// that refactors one pattern sample after sample, as Monte Carlo does,
// reuses one instead of allocating it per factorization.
var updateScratch sync.Pool

// getSuperScratch returns a pooled update workspace sized for sym.
func getSuperScratch(sym *SuperSymbolic) *superScratch {
	nw, nr := sym.maxRows*sym.maxWidth, sym.maxRows
	if sc, _ := updateScratch.Get().(*superScratch); sc != nil && cap(sc.w) >= nw && cap(sc.relind) >= nr {
		sc.w, sc.relind = sc.w[:nw], sc.relind[:nr]
		return sc
	}
	return &superScratch{w: make([]float64, nw), relind: make([]int, nr)}
}

func putSuperScratch(sc *superScratch) { updateScratch.Put(sc) }

package factor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opera/internal/obs"
	"opera/internal/sparse"
)

// SuperFactor is a numeric supernodal Cholesky factorization
// P·A·Pᵀ = L·Lᵀ with L stored column-major in dense per-supernode
// panels. It solves through the same zero-allocation entry points as
// CholFactor.
type SuperFactor struct {
	Sym *SuperSymbolic
	val []float64 // concatenated panels; supernode s at Sym.poff[s], ld = its row count
}

// superScratch is one worker's private update workspace.
type superScratch struct {
	w      []float64 // dense update block W, column-major
	relind []int     // row positions of the update inside the target panel
}

// Factorize numerically factors a, which must share the analyzed
// pattern (entries may be missing numerically): it permutes a into the
// lower triangle of the analysis (Lower, LowerSlots) and factors that
// with FactorLower.
func (sym *SuperSymbolic) Factorize(a *sparse.Matrix, reuse *SuperFactor, workers int) (*SuperFactor, error) {
	slot, err := sym.LowerSlots(a)
	if err != nil {
		return nil, err
	}
	lower := sym.Lower()
	for p, q := range slot {
		if q >= 0 {
			lower.Val[q] = a.Val[p]
		}
	}
	return sym.FactorLower(lower, reuse, workers)
}

// FactorLower numerically factors the matrix whose permuted lower
// triangle is lower, a Lower refilled through LowerSlots; callers that
// refactor one pattern many times refill it in place instead of
// permuting every value set. reuse, when non-nil and produced from the
// same analysis, recycles the panel storage. workers caps the
// supernode task pool (≤1 = serial); the resulting factor is
// bit-identical for every worker count because each supernode applies
// its pending updates in a fixed ascending order no matter which
// worker runs it.
func (sym *SuperSymbolic) FactorLower(lower *sparse.Matrix, reuse *SuperFactor, workers int) (*SuperFactor, error) {
	pick := func(m *factorMetrics) *obs.Histogram { return m.superChol }
	if reuse != nil {
		pick = func(m *factorMetrics) *obs.Histogram { return m.refactor }
	}
	defer observe(pick)()
	n := sym.N
	if lower.Rows != n || lower.Cols != n || lower.NNZ() != sym.lower.NNZ() {
		return nil, fmt.Errorf("factor: lower triangle is %dx%d with %d entries, analyzed %d with %d",
			lower.Rows, lower.Cols, lower.NNZ(), n, sym.lower.NNZ())
	}
	f := reuse
	if f == nil || f.Sym != sym {
		f = &SuperFactor{Sym: sym, val: make([]float64, sym.PanelNNZ())}
	}
	ns := sym.Supernodes()
	if workers > ns {
		workers = ns
	}
	var err error
	if workers <= 1 {
		sc := getSuperScratch(sym)
		// Ascending supernode order is a topological order of the update
		// DAG: every updater of s is a descendant with smaller columns.
		for s := 0; s < ns; s++ {
			if e := f.factorSupernode(s, lower, sc); e != nil && (err == nil) {
				err = e
			}
		}
		putSuperScratch(sc)
	} else {
		err = f.factorParallel(lower, workers)
	}
	if err != nil {
		return nil, err
	}
	recordWork(sym.FlopEstimate(), sym.FillRatio())
	return f, nil
}

// factorParallel schedules supernodes over the update DAG: a supernode
// becomes ready when all its updaters have completed. On failure every
// task still runs (cheaply computing garbage downstream of the failed
// panel) so that the supernode holding the smallest failing pivot
// always executes with fully valid inputs — the reported error is then
// the minimum failing column, identical at every worker count.
func (f *SuperFactor) factorParallel(lower *sparse.Matrix, workers int) error {
	sym := f.Sym
	ns := sym.Supernodes()
	deps := make([]int32, ns)
	ready := make(chan int, ns)
	for s := 0; s < ns; s++ {
		deps[s] = int32(sym.updp[s+1] - sym.updp[s])
		if deps[s] == 0 {
			ready <- s
		}
	}
	var pending atomic.Int64
	pending.Store(int64(ns))
	var mu sync.Mutex
	var firstErr error
	firstCol := sym.N
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getSuperScratch(sym)
			defer putSuperScratch(sc)
			for s := range ready {
				if e := f.factorSupernode(s, lower, sc); e != nil {
					mu.Lock()
					if pe, ok := e.(*pivotError); ok && pe.col < firstCol {
						firstCol = pe.col
						firstErr = e
					}
					mu.Unlock()
				}
				for _, t := range sym.tgt[sym.tgtp[s]:sym.tgtp[s+1]] {
					if atomic.AddInt32(&deps[t], -1) == 0 {
						ready <- t
					}
				}
				if pending.Add(-1) == 0 {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// pivotError carries the failing column so the parallel scheduler can
// select the deterministic (minimum-column) failure.
type pivotError struct {
	col int
	d   float64
}

func (e *pivotError) Error() string {
	return fmt.Sprintf("%v (pivot %d: %g)", ErrNotPositiveDefinite, e.col, e.d)
}

func (e *pivotError) Unwrap() error { return ErrNotPositiveDefinite }

// factorSupernode runs the complete left-looking computation of one
// supernode: scatter A's lower columns into the panel, apply every
// descendant update in ascending order, then factor the dense
// trapezoid in place.
func (f *SuperFactor) factorSupernode(s int, lower *sparse.Matrix, sc *superScratch) error {
	sym := f.Sym
	start, end := sym.sstart[s], sym.sstart[s+1]
	w := end - start
	rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
	nr := len(rlist)
	panel := f.val[sym.poff[s]:sym.poff[s+1]]
	for i := range panel {
		panel[i] = 0
	}
	// Scatter the lower triangle of the permuted A. Every stored row of
	// column j lies in the panel row list (the factor pattern contains
	// A's), so a single merge walk places each column.
	for j := start; j < end; j++ {
		col := panel[(j-start)*nr:]
		pos := j - start // rlist[j-start] == j
		for p := lower.Colp[j]; p < lower.Colp[j+1]; p++ {
			r := lower.Rowi[p]
			for rlist[pos] != r {
				pos++
			}
			col[pos] = lower.Val[p]
		}
	}
	for _, d := range sym.upd[sym.updp[s]:sym.updp[s+1]] {
		f.applyUpdate(d, s, rlist, panel, nr, sc)
	}
	// Dense left-looking Cholesky of the trapezoid: column j first
	// absorbs the rank-1 contributions of columns k<j over its full
	// height (contiguous axpys), then scales by the pivot square root.
	for j := 0; j < w; j++ {
		cj := panel[j*nr : (j+1)*nr]
		// Absorb prior columns two at a time: one pass over cj serves
		// two rank-1 updates, halving the store traffic of the
		// memory-bound inner loop.
		k := 0
		for ; k+1 < j; k += 2 {
			ck := panel[k*nr : (k+1)*nr]
			cl := panel[(k+1)*nr : (k+2)*nr]
			a0, a1 := ck[j], cl[j]
			if a0 == 0 && a1 == 0 {
				continue
			}
			for i := j; i < nr; i++ {
				cj[i] -= a0*ck[i] + a1*cl[i]
			}
		}
		if k < j {
			ck := panel[k*nr : (k+1)*nr]
			if coef := ck[j]; coef != 0 {
				for i := j; i < nr; i++ {
					cj[i] -= coef * ck[i]
				}
			}
		}
		d := cj[j]
		if d <= 0 || math.IsNaN(d) {
			return &pivotError{col: start + j, d: d}
		}
		root := math.Sqrt(d)
		cj[j] = root
		inv := 1 / root
		for i := j + 1; i < nr; i++ {
			cj[i] *= inv
		}
	}
	return nil
}

// applyUpdate subtracts the rank-w_d contribution of descendant
// supernode d from target s: W = L_d[rows ≥ start_s] · L_d[rows in
// s]ᵀ, accumulated densely and scattered through relative indices. The
// inner loops run over contiguous panel columns.
func (f *SuperFactor) applyUpdate(d, s int, rlist []int, panel []float64, nr int, sc *superScratch) {
	sym := f.Sym
	start, end := sym.sstart[s], sym.sstart[s+1]
	ds, de := sym.sstart[d], sym.sstart[d+1]
	wd := de - ds
	drows := sym.rows[sym.rowp[d]:sym.rowp[d+1]]
	ndr := len(drows)
	dpanel := f.val[sym.poff[d]:sym.poff[d+1]]
	// ci0: first row of d at or beyond s's columns; ci1: first beyond.
	ci0 := wd
	for drows[ci0] < start {
		ci0++
	}
	ci1 := ci0
	for ci1 < ndr && drows[ci1] < end {
		ci1++
	}
	ncl := ci1 - ci0 // update columns (map to columns of s)
	nru := ndr - ci0 // update rows
	// Every updated row of d appears in s's panel rows; one merge walk
	// computes all relative indices.
	relind := sc.relind[:nru]
	pos := 0
	for i := ci0; i < ndr; i++ {
		r := drows[i]
		for rlist[pos] != r {
			pos++
		}
		relind[i-ci0] = pos
	}
	if ncl == 1 {
		// Single-column update — the dominant shape when the ordering
		// yields narrow supernodes. Skip the staging buffer and
		// accumulate straight into the target column through the
		// relative indices, two updater columns per scattered pass.
		col := panel[relind[0]*nr:]
		p := 0
		for ; p+1 < wd; p += 2 {
			d0 := dpanel[p*ndr+ci0 : p*ndr+ndr]
			d1 := dpanel[(p+1)*ndr+ci0 : (p+1)*ndr+ndr]
			a0, a1 := d0[0], d1[0]
			if a0 == 0 && a1 == 0 {
				continue
			}
			for i := 0; i < nru; i++ {
				col[relind[i]] -= a0*d0[i] + a1*d1[i]
			}
		}
		if p < wd {
			dcol := dpanel[p*ndr+ci0 : p*ndr+ndr]
			if coef := dcol[0]; coef != 0 {
				for i := 0; i < nru; i++ {
					col[relind[i]] -= coef * dcol[i]
				}
			}
		}
		return
	}
	wbuf := sc.w[:nru*ncl]
	for c := 0; c < ncl; c++ {
		wc := wbuf[c*nru:]
		for i := c; i < nru; i++ {
			wc[i] = 0
		}
		p := 0
		for ; p+1 < wd; p += 2 {
			d0 := dpanel[p*ndr+ci0 : p*ndr+ndr]
			d1 := dpanel[(p+1)*ndr+ci0 : (p+1)*ndr+ndr]
			a0, a1 := d0[c], d1[c]
			if a0 == 0 && a1 == 0 {
				continue
			}
			for i := c; i < nru; i++ {
				wc[i] += a0*d0[i] + a1*d1[i]
			}
		}
		if p < wd {
			dcol := dpanel[p*ndr+ci0 : p*ndr+ndr]
			if coef := dcol[c]; coef != 0 {
				for i := c; i < nru; i++ {
					wc[i] += coef * dcol[i]
				}
			}
		}
	}
	for c := 0; c < ncl; c++ {
		col := panel[relind[c]*nr:]
		wc := wbuf[c*nru:]
		for i := c; i < nru; i++ {
			col[relind[i]] -= wc[i]
		}
	}
}

// Solve solves A·x = b, returning the solution in a new slice.
func (f *SuperFactor) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into x (which may alias b). Scratch comes
// from the package pool; safe to call concurrently on a shared factor.
func (f *SuperFactor) SolveTo(x, b []float64) {
	y := getScratch(f.Sym.N)
	f.SolveToWithScratch(x, b, *y)
	putScratch(y)
}

// SolveToWithScratch solves A·x = b into x using the caller-provided
// work vector y of length n. It allocates nothing — the panels solve
// in place against y — matching CholFactor's hot-loop contract. x may
// alias b; y must not alias x or b.
func (f *SuperFactor) SolveToWithScratch(x, b, y []float64) {
	sym := f.Sym
	n := sym.N
	if len(b) != n || len(x) != n || len(y) != n {
		panic(fmt.Sprintf("factor: Solve length %d/%d/%d != %d", len(x), len(b), len(y), n))
	}
	if sym.Perm != nil {
		sparse.PermVecTo(y, sym.Perm, b)
	} else {
		copy(y, b)
	}
	ns := sym.Supernodes()
	// Forward: L·y = y. Supernodes ascend; within one, column j scales
	// by its pivot then pushes contiguous panel columns onto the block
	// and below rows.
	for s := 0; s < ns; s++ {
		start := sym.sstart[s]
		w := sym.sstart[s+1] - start
		rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
		nr := len(rlist)
		panel := f.val[sym.poff[s]:]
		for j := 0; j < w; j++ {
			cj := panel[j*nr:]
			yj := y[start+j] / cj[j]
			y[start+j] = yj
			for i := j + 1; i < w; i++ {
				y[start+i] -= cj[i] * yj
			}
			for i := w; i < nr; i++ {
				y[rlist[i]] -= cj[i] * yj
			}
		}
	}
	// Backward: Lᵀ·y = y. Supernodes descend; column j gathers its
	// below-row and block contributions in one contiguous panel read.
	for s := ns - 1; s >= 0; s-- {
		start := sym.sstart[s]
		w := sym.sstart[s+1] - start
		rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
		nr := len(rlist)
		panel := f.val[sym.poff[s]:]
		for j := w - 1; j >= 0; j-- {
			cj := panel[j*nr:]
			sum := y[start+j]
			for i := j + 1; i < nr; i++ {
				sum -= cj[i] * y[rlist[i]]
			}
			y[start+j] = sum / cj[j]
		}
	}
	if sym.Perm != nil {
		sparse.InvPermVecTo(x, sym.Perm, y)
	} else {
		copy(x, y)
	}
}

// SolveMany solves A·x[c] = b[c] for every column c in one sweep over
// the panels: the right-hand sides are gathered through the permutation
// into a pooled node-interleaved block (y[i·k+c]), each panel column is
// read once per register group of columns (groups of 4, then one of the
// remaining 1–3) and applied to every right-hand side in the group, and
// the block scatters back. x[c] may alias b[c].
// Every column goes through exactly SolveToWithScratch's operations in
// its order, so the result is bitwise equal to k SolveTo calls for any
// k and any split of the columns. Safe to call concurrently on a
// shared factor.
func (f *SuperFactor) SolveMany(x, b [][]float64) {
	k := len(b)
	if len(x) != k {
		panic(fmt.Sprintf("factor: SolveMany has %d solutions for %d right-hand sides", len(x), k))
	}
	switch k {
	case 0:
		return
	case 1:
		// One column takes the single-vector path: the interleaved
		// kernel at k = 1 measured about 20 % slower than SolveTo
		// (60×60 mesh, AMD, BenchmarkSolveMany's setup).
		f.SolveTo(x[0], b[0])
		return
	}
	sym := f.Sym
	n := sym.N
	for c := range b {
		if len(b[c]) != n || len(x[c]) != n {
			panic(fmt.Sprintf("factor: SolveMany column %d length %d/%d != %d", c, len(x[c]), len(b[c]), n))
		}
	}
	yp := getScratch(n * k)
	y := *yp
	for i := 0; i < n; i++ {
		src := i
		if sym.Perm != nil {
			src = sym.Perm[i]
		}
		row := y[i*k : i*k+k]
		for c, bc := range b {
			row[c] = bc[src]
		}
	}
	ns := sym.Supernodes()
	for s := 0; s < ns; s++ {
		rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
		nr := len(rlist)
		panel := f.val[sym.poff[s]:]
		for j := 0; j < sym.sstart[s+1]-sym.sstart[s]; j++ {
			forwardMany(y, k, panel[j*nr:(j+1)*nr], rlist, j)
		}
	}
	for s := ns - 1; s >= 0; s-- {
		rlist := sym.rows[sym.rowp[s]:sym.rowp[s+1]]
		nr := len(rlist)
		panel := f.val[sym.poff[s]:]
		for j := sym.sstart[s+1] - sym.sstart[s] - 1; j >= 0; j-- {
			backwardMany(y, k, panel[j*nr:(j+1)*nr], rlist, j)
		}
	}
	for i := 0; i < n; i++ {
		dst := i
		if sym.Perm != nil {
			dst = sym.Perm[i]
		}
		row := y[i*k : i*k+k]
		for c, xc := range x {
			xc[dst] = row[c]
		}
	}
	putScratch(yp)
}

// forwardMany is one forward-substitution column of SolveMany: panel
// column l (rows rlist, pivot at position j) divides row rlist[j] of
// the k-column block y by the pivot, then subtracts l[i] times it from
// every row rlist[i] below — per column the operations of
// SolveToWithScratch's forward pass, in the same order. Columns go in
// groups of 4 and then one group of the remaining 1–3, so the panel
// column is read ⌈k/4⌉ times.
func forwardMany(y []float64, k int, l []float64, rlist []int, j int) {
	r, d := rlist[j]*k, l[j]
	c := 0
	for ; c+4 <= k; c += 4 {
		t := y[r+c : r+c+4 : r+c+4]
		y0, y1, y2, y3 := t[0]/d, t[1]/d, t[2]/d, t[3]/d
		t[0], t[1], t[2], t[3] = y0, y1, y2, y3
		for i := j + 1; i < len(l); i++ {
			li, p := l[i], rlist[i]*k+c
			u := y[p : p+4 : p+4]
			u[0] -= li * y0
			u[1] -= li * y1
			u[2] -= li * y2
			u[3] -= li * y3
		}
	}
	switch k - c {
	case 3:
		t := y[r+c : r+c+3 : r+c+3]
		y0, y1, y2 := t[0]/d, t[1]/d, t[2]/d
		t[0], t[1], t[2] = y0, y1, y2
		for i := j + 1; i < len(l); i++ {
			li, p := l[i], rlist[i]*k+c
			u := y[p : p+3 : p+3]
			u[0] -= li * y0
			u[1] -= li * y1
			u[2] -= li * y2
		}
	case 2:
		t := y[r+c : r+c+2 : r+c+2]
		y0, y1 := t[0]/d, t[1]/d
		t[0], t[1] = y0, y1
		for i := j + 1; i < len(l); i++ {
			li, p := l[i], rlist[i]*k+c
			u := y[p : p+2 : p+2]
			u[0] -= li * y0
			u[1] -= li * y1
		}
	case 1:
		y0 := y[r+c] / d
		y[r+c] = y0
		for i := j + 1; i < len(l); i++ {
			y[rlist[i]*k+c] -= l[i] * y0
		}
	}
}

// backwardMany is one backward-substitution column of SolveMany: row
// rlist[j] of y gathers l[i] times every row rlist[i] below, then
// divides by the pivot — per column the operations of
// SolveToWithScratch's backward pass, in the same order. Columns are
// grouped as in forwardMany.
func backwardMany(y []float64, k int, l []float64, rlist []int, j int) {
	r, d := rlist[j]*k, l[j]
	c := 0
	for ; c+4 <= k; c += 4 {
		t := y[r+c : r+c+4 : r+c+4]
		s0, s1, s2, s3 := t[0], t[1], t[2], t[3]
		for i := j + 1; i < len(l); i++ {
			li, p := l[i], rlist[i]*k+c
			u := y[p : p+4 : p+4]
			s0 -= li * u[0]
			s1 -= li * u[1]
			s2 -= li * u[2]
			s3 -= li * u[3]
		}
		t[0], t[1], t[2], t[3] = s0/d, s1/d, s2/d, s3/d
	}
	switch k - c {
	case 3:
		t := y[r+c : r+c+3 : r+c+3]
		s0, s1, s2 := t[0], t[1], t[2]
		for i := j + 1; i < len(l); i++ {
			li, p := l[i], rlist[i]*k+c
			u := y[p : p+3 : p+3]
			s0 -= li * u[0]
			s1 -= li * u[1]
			s2 -= li * u[2]
		}
		t[0], t[1], t[2] = s0/d, s1/d, s2/d
	case 2:
		t := y[r+c : r+c+2 : r+c+2]
		s0, s1 := t[0], t[1]
		for i := j + 1; i < len(l); i++ {
			li, p := l[i], rlist[i]*k+c
			u := y[p : p+2 : p+2]
			s0 -= li * u[0]
			s1 -= li * u[1]
		}
		t[0], t[1] = s0/d, s1/d
	case 1:
		s0 := y[r+c]
		for i := j + 1; i < len(l); i++ {
			s0 -= l[i] * y[rlist[i]*k+c]
		}
		y[r+c] = s0 / d
	}
}

// L expands the panels into the scalar CSC lower factor under the
// exact symbolic pattern (padding zeros dropped). Intended for tests
// and diagnostics, not hot paths.
func (f *SuperFactor) L() *sparse.Matrix {
	sym := f.Sym
	n := sym.N
	colp := make([]int, n+1)
	for j := 0; j < n; j++ {
		colp[j+1] = colp[j] + sym.colcount[j]
	}
	l := &sparse.Matrix{
		Rows: n, Cols: n,
		Colp: colp,
		Rowi: make([]int, colp[n]),
		Val:  make([]float64, colp[n]),
	}
	next := append([]int(nil), colp[:n]...)
	// Reconstruct each column's exact pattern with the scalar symbolic
	// machinery, then read the values out of the panels.
	upper := sym.Lower().Transpose()
	parent := etree(upper)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	at := func(i, j int) float64 { // L(i,j), i ≥ j
		sn := sym.snode[j]
		start := sym.sstart[sn]
		rlist := sym.rows[sym.rowp[sn]:sym.rowp[sn+1]]
		nr := len(rlist)
		lo := j - start
		for rlist[lo] != i {
			lo++
		}
		return f.val[sym.poff[sn]+(j-start)*nr+lo]
	}
	for k := 0; k < n; k++ {
		for top := ereach(upper, k, parent, s, w); top < n; top++ {
			j := s[top]
			l.Rowi[next[j]] = k
			l.Val[next[j]] = at(k, j)
			next[j]++
		}
		l.Rowi[next[k]] = k
		l.Val[next[k]] = at(k, k)
		next[k]++
	}
	return l
}

package galerkin

import (
	"fmt"
	"math"
	"slices"

	"opera/internal/factor"
	"opera/internal/numguard"
	"opera/internal/numguard/inject"
	"opera/internal/parallel"
	"opera/internal/randvar"
	"opera/internal/sparse"
)

// This file builds the coupled CG's preconditioner. The step operator
// of Eq. 19 is Σ_t A_t ⊗ T_t over the G terms and the C terms scaled by
// 1/h. When every non-identity G term is c_t·G₀ and every non-identity
// C term is c_t·C₀ (the paper's Table 1 model, Eq. 13–14, scales G and
// C by one relative factor per variable), it is exactly two Kronecker
// products,
//
//	Ã = G₀ ⊗ T̂_G + (C₀/h) ⊗ T̂_C,  T̂ = I + Σ_t c_t·T_t.
//
// A basis Q of the B×B generalized eigenproblem T̂_C·q = λ·T̂_G·q,
// scaled so that Qᵀ·T̂_G·Q = I and Qᵀ·T̂_C·Q = Λ, splits it into B
// scalar companions:
//
//	Ã⁻¹ = (I ⊗ Q)·⊕_m (G₀ + λ_m·C₀/h)⁻¹·(I ⊗ Qᵀ),
//
// and the DC operator's inverse is G₀⁻¹ ⊗ T̂_G⁻¹ = G₀⁻¹ ⊗ Q·Qᵀ. This is
// the Kronecker-product preconditioner of Ullmann (SIAM J. Sci.
// Comput. 32(2), 2010), exact here, and the §5.1 decoupling carried
// over to operator variation: CG preconditioned with Ã⁻¹ itself stops
// after one iteration. Every other system takes T̂_G = T̂_C = I: Q = I,
// every λ_m = 1, one factor of the mean companion G₀ + C₀/h and no
// mixing, the block-diagonal mean preconditioner.

// separableTol bounds a fitted term's misfit ‖A_t − c_t·M‖_F relative
// to ‖A_t‖_F. It is rounding level, so only terms proportional to the
// mean node matrix M fit: a partial fit costs B factorizations and
// saves few iterations.
const separableTol = 1e-12

// coupledPrecond holds the coupled CG's preconditioners and how they
// were built.
type coupledPrecond struct {
	dc, step *kronPrecond
	kind     string         // "separable" or "mean"
	rung     string         // what factored them: "supernodal", or the mean ladder's rung
	cond     func() float64 // κ₁ estimate of a step factor, recorded on the report
}

// newCoupledPrecond builds the exact separable preconditioners when the
// system is exactly separable and they fit, the mean ones otherwise.
// g0, c0 and comp are the identity-coupled G₀, C₀ and G₀ + C₀/h; comp
// holds both patterns and perm orders it.
func newCoupledPrecond(sys *System, g0, c0, comp *sparse.Matrix, perm []int, opts Options, workers int, rep *numguard.Report, st *factorStats) (*coupledPrecond, error) {
	cols := alloc2(sys.Basis.Size(), sys.N)
	if pc := separablePrecond(sys, g0, c0, comp, perm, opts, workers, rep, st, cols); pc != nil {
		return pc, nil
	}
	return meanPrecond(sys, g0, comp, perm, opts, workers, rep, st, cols)
}

// meanPrecond builds I_B ⊗ (G₀ + C₀/h)⁻¹ and I_B ⊗ G₀⁻¹, each factor
// through a scalar ladder of its own: a mean companion that defeats
// Cholesky falls back to LU rather than aborting.
func meanPrecond(sys *System, g0, comp *sparse.Matrix, perm []int, opts Options, workers int, rep *numguard.Report, st *factorStats, cols [][]float64) (*coupledPrecond, error) {
	n, b := sys.N, sys.Basis.Size()
	compLad := numguard.NewLadder("precond", opts.Guard, comp, comp.NormInf(),
		scalarRungs(comp, perm, workers, opts.Guard, opts.ForceLU, st), rep)
	compFac, err := compLad.Solver(0)
	if err != nil {
		return nil, fmt.Errorf("galerkin: mean companion factorization: %w", err)
	}
	g0Lad := numguard.NewLadder("precond-dc", opts.Guard, g0, g0.NormInf(),
		scalarRungs(g0, perm, workers, opts.Guard, opts.ForceLU, nil), rep)
	g0Fac, err := g0Lad.Solver(0)
	if err != nil {
		return nil, fmt.Errorf("galerkin: mean DC factorization: %w", err)
	}
	one := make([]int, b) // every column on the one factor
	return &coupledPrecond{
		dc:   newKronPrecond(n, b, workers, nil, one, []numguard.Solver{g0Fac}, cols),
		step: newKronPrecond(n, b, workers, nil, one, []numguard.Solver{compFac}, cols),
		kind: "mean",
		rung: compLad.Rung(),
		cond: func() float64 { return compLad.CondEstimate(n) },
	}, nil
}

// separablePrecond builds the exact preconditioners of an exactly
// separable system, or returns nil to leave it on the mean ones: when
// some term does not fit, no term varies the operator, T̂_G or T̂_C is
// not positive definite, ForceLU is set, the factors' panels would
// exceed maxBlockFactorBytes, or a factorization fails. Each exactly
// distinct shift gets one factor on the analysis of comp; the DC
// preconditioner's G₀ is shift 0 on the same analysis.
func separablePrecond(sys *System, g0, c0, comp *sparse.Matrix, perm []int, opts Options, workers int, rep *numguard.Report, st *factorStats, cols [][]float64) *coupledPrecond {
	if opts.ForceLU {
		return nil
	}
	n, b := sys.N, sys.Basis.Size()
	tg, fitG, okG := chaosFit(sys.GTerms, g0, b)
	tc, fitC, okC := chaosFit(sys.CTerms, c0, b)
	if !okG || !okC || fitG+fitC == 0 {
		return nil
	}
	q, lambda, ok := chaosEigenbasis(tg, tc, b)
	if !ok {
		return nil
	}
	// Factor 0 is G₀ for DC; factor 1+f is G₀ + λ_f·C₀/h for the f-th
	// distinct eigenvalue in ascending order.
	distinct := slices.Clone(lambda)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	shifts := []float64{0}
	for _, l := range distinct {
		shifts = append(shifts, l/opts.Step)
	}
	colFac := make([]int, b)
	for m, l := range lambda {
		colFac[m], _ = slices.BinarySearch(distinct, l)
	}
	sym := factor.CholAnalyzeSupernodal(comp, perm, -1)
	if float64(len(shifts))*float64(sym.PanelNNZ())*8 > maxBlockFactorBytes || inject.FailPrepare("supernodal") {
		return nil
	}
	facs, err := factorShifts(sym, g0, c0, shifts, workers)
	if err != nil {
		return nil
	}
	st.set(sym.LNNZ(), sym.FlopEstimate(), sym.FillRatio())
	dcQ := q
	if fitG == 0 {
		dcQ = nil // T̂_G = I: G₀⁻¹ ⊗ I needs no mixing
	}
	first := facs[1]
	return &coupledPrecond{
		// Separate slices, so dropping the DC preconditioner frees G₀'s
		// factor.
		dc:   newKronPrecond(n, b, workers, dcQ, make([]int, b), []numguard.Solver{facs[0]}, cols),
		step: newKronPrecond(n, b, workers, q, colFac, slices.Clone(facs[1:]), cols),
		kind: "separable",
		rung: "supernodal",
		// The smallest shift's companion lies nearest G₀, the worst
		// conditioned of the step factors in practice.
		cond: func() float64 {
			c := numguard.CondEst1(n, sparse.Add(1, g0, shifts[1], c0).NormInf(), first.SolveTo)
			rep.SetCond(c)
			return c
		},
	}
}

// factorShifts factors G₀ + σ·C₀ for every σ of shifts on sym, in
// parallel over the shifts. Each worker refills one lower triangle
// through the slot maps of G₀ and C₀ for every factor it builds, so no
// shifted matrix is ever assembled. A factor is bit-identical at every
// worker count; workers left over when shifts are few go to each
// factorization's supernode pool.
func factorShifts(sym *factor.SuperSymbolic, g0, c0 *sparse.Matrix, shifts []float64, workers int) ([]numguard.Solver, error) {
	slotG, err := sym.LowerSlots(g0)
	if err != nil {
		return nil, err
	}
	slotC, err := sym.LowerSlots(c0)
	if err != nil {
		return nil, err
	}
	pool := min(workers, len(shifts))
	lowers := make([]*sparse.Matrix, pool)
	facs := make([]numguard.Solver, len(shifts))
	err = parallel.ForEach(pool, len(shifts), func(w, f int) error {
		if lowers[w] == nil {
			lowers[w] = sym.Lower()
		}
		val := lowers[w].Val
		clear(val)
		for p, q := range slotG {
			if q >= 0 {
				val[q] = g0.Val[p]
			}
		}
		if s := shifts[f]; s != 0 {
			for p, q := range slotC {
				if q >= 0 {
					val[q] += s * c0.Val[p]
				}
			}
		}
		fac, err := sym.FactorLower(lowers[w], nil, workers/pool)
		if err != nil {
			return err
		}
		facs[f] = fac
		return nil
	})
	return facs, err
}

// chaosFit fits every non-identity term of ts as c_t·m and returns
// T̂ = I + Σ_t c_t·T_t (B×B, row-major) with the number of terms
// fitted; ok is false when some term is not c_t·m to rounding.
func chaosFit(ts []Term, m *sparse.Matrix, b int) (t []float64, fitted int, ok bool) {
	t = make([]float64, b*b)
	for i := 0; i < b; i++ {
		t[i*b+i] = 1
	}
	for _, term := range ts {
		if isIdentity(term.Coupling) {
			continue
		}
		c, misfit := proportion(term.A, m)
		if !(misfit <= separableTol) {
			return nil, 0, false
		}
		cp := term.Coupling
		for j := 0; j < cp.Cols; j++ {
			for p := cp.Colp[j]; p < cp.Colp[j+1]; p++ {
				t[cp.Rowi[p]*b+j] += c * cp.Val[p]
			}
		}
		fitted++
	}
	return t, fitted, true
}

// proportion returns c = ⟨a, m⟩_F/⟨m, m⟩_F, the multiple of m nearest
// a, and the relative misfit ‖a − c·m‖_F/‖a‖_F, summed entry by entry
// over the union pattern (the shortcut ‖a‖² − ⟨a, m⟩²/‖m‖² loses a
// rounding-level misfit to cancellation). An empty m fits nothing: the
// misfit is +Inf.
func proportion(a, m *sparse.Matrix) (c, misfit float64) {
	each := func(f func(av, mv float64)) {
		for j := 0; j < a.Cols; j++ {
			p, pe := a.Colp[j], a.Colp[j+1]
			q, qe := m.Colp[j], m.Colp[j+1]
			for p < pe || q < qe {
				switch {
				case q == qe || (p < pe && a.Rowi[p] < m.Rowi[q]):
					f(a.Val[p], 0)
					p++
				case p == pe || m.Rowi[q] < a.Rowi[p]:
					f(0, m.Val[q])
					q++
				default:
					f(a.Val[p], m.Val[q])
					p++
					q++
				}
			}
		}
	}
	var am, mm, aa float64
	each(func(av, mv float64) { am, mm, aa = am+av*mv, mm+mv*mv, aa+av*av })
	if mm == 0 {
		return 0, math.Inf(1)
	}
	c = am / mm
	miss := 0.0
	each(func(av, mv float64) { d := av - c*mv; miss += d * d })
	return c, math.Sqrt(miss / aa)
}

// chaosEigenbasis solves T̂_C·q = λ·T̂_G·q for the B×B row-major tg and
// tc. With T̂_G = L·Lᵀ and V the eigenvectors of L⁻¹·T̂_C·L⁻ᵀ, Q = L⁻ᵀ·V
// (row-major; column m is eigenvector m), so Qᵀ·T̂_G·Q = VᵀV = I and
// Qᵀ·T̂_C·Q = Λ. ok is false unless both are positive definite.
func chaosEigenbasis(tg, tc []float64, b int) (q, lambda []float64, ok bool) {
	l, ok := denseCholesky(tg, b)
	if !ok {
		return nil, nil, false
	}
	// W = L⁻¹·T̂_C; T̂_C is symmetric, so L⁻¹·Wᵀ = L⁻¹·T̂_C·L⁻ᵀ.
	w := slices.Clone(tc)
	lowerSolve(l, w, b)
	w = transposed(w, b)
	lowerSolve(l, w, b)
	s := make([][]float64, b)
	frob := 0.0
	for i := range s {
		s[i] = make([]float64, b)
		for j := range s[i] {
			s[i][j] = (w[i*b+j] + w[j*b+i]) / 2
			frob += s[i][j] * s[i][j]
		}
	}
	// Rotate until the off-diagonal is at S's rounding level, ε·‖S‖_F,
	// so Qᵀ·T̂_C·Q is diagonal to rounding and the inverse exact.
	lambda, v := randvar.JacobiEigen(s, 0x1p-104*frob)
	for _, x := range lambda {
		if !(x > 0) {
			return nil, nil, false
		}
	}
	q = make([]float64, b*b)
	for i, row := range v {
		copy(q[i*b:], row)
	}
	upperSolve(l, q, b)
	return q, lambda, true
}

// denseCholesky returns the lower factor L of the B×B row-major SPD a,
// a = L·Lᵀ, or false when a is not positive definite.
func denseCholesky(a []float64, b int) ([]float64, bool) {
	l := make([]float64, b*b)
	for j := 0; j < b; j++ {
		d := a[j*b+j]
		for k := 0; k < j; k++ {
			d -= l[j*b+k] * l[j*b+k]
		}
		if !(d > 0) {
			return nil, false
		}
		d = math.Sqrt(d)
		l[j*b+j] = d
		for i := j + 1; i < b; i++ {
			s := a[i*b+j]
			for k := 0; k < j; k++ {
				s -= l[i*b+k] * l[j*b+k]
			}
			l[i*b+j] = s / d
		}
	}
	return l, true
}

// lowerSolve overwrites the B×B row-major x with L⁻¹·x.
func lowerSolve(l, x []float64, b int) {
	for i := 0; i < b; i++ {
		xi := x[i*b : i*b+b]
		for k := 0; k < i; k++ {
			lik, xk := l[i*b+k], x[k*b:k*b+b]
			for j := range xi {
				xi[j] -= lik * xk[j]
			}
		}
		for j := range xi {
			xi[j] /= l[i*b+i]
		}
	}
}

// upperSolve overwrites the B×B row-major x with L⁻ᵀ·x.
func upperSolve(l, x []float64, b int) {
	for i := b - 1; i >= 0; i-- {
		xi := x[i*b : i*b+b]
		for k := i + 1; k < b; k++ {
			lki, xk := l[k*b+i], x[k*b:k*b+b]
			for j := range xi {
				xi[j] -= lki * xk[j]
			}
		}
		for j := range xi {
			xi[j] /= l[i*b+i]
		}
	}
}

// transposed returns the transpose of the B×B row-major a.
func transposed(a []float64, b int) []float64 {
	t := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			t[j*b+i] = a[i*b+j]
		}
	}
	return t
}

// kronPrecond applies z = (I ⊗ Q)·⊕_m S_m⁻¹·(I ⊗ Qᵀ)·r to node-major
// vectors, S_m the factor that serves chaos column m. It holds the
// columns grouped by factor, so the columns sharing one go through one
// batched solve. Q = nil is the identity: each column is r's strided
// chaos column, solved and written straight back to z.
//
// The held columns split into one contiguous range per worker, which
// mixes its columns out of r, solves them and, without Q, writes them
// to z; with Q, a second pass over node ranges mixes them back. Each
// mix sums in a fixed order whatever its range, and a batched solve is
// bitwise the column-by-column one, so z is bit-identical for every
// worker count.
type kronPrecond struct {
	n, b, workers int
	col           []int             // col[k]: the chaos column held at position k
	fac           []int             // fac[k]: index into facs of position k's factor, nondecreasing
	facs          []numguard.Solver // the factors
	qt            []float64         // qt[k·B+j] = Q[j][col[k]]; nil for Q = I
	cols          [][]float64       // the B held columns, each of length n
}

// newKronPrecond holds chaos column m on factor facs[colFac[m]]; q is
// Q (B×B, row-major) or nil for the identity, and cols the B column
// buffers.
func newKronPrecond(n, b, workers int, q []float64, colFac []int, facs []numguard.Solver, cols [][]float64) *kronPrecond {
	p := &kronPrecond{n: n, b: b, workers: workers, facs: facs, cols: cols, col: make([]int, b), fac: make([]int, b)}
	for m := range p.col {
		p.col[m] = m
	}
	slices.SortStableFunc(p.col, func(x, y int) int { return colFac[x] - colFac[y] })
	for k, m := range p.col {
		p.fac[k] = colFac[m]
	}
	if q != nil {
		p.qt = make([]float64, b*b)
		for k, m := range p.col {
			for j := 0; j < b; j++ {
				p.qt[k*b+j] = q[j*b+m]
			}
		}
	}
	return p
}

// mixMACs counts the multiply-adds of one apply's two mixes, 2·n·B²,
// or 0 without Q.
func (p *kronPrecond) mixMACs() int64 {
	if p.qt == nil {
		return 0
	}
	return 2 * int64(p.n) * int64(p.b) * int64(p.b)
}

// Precondition implements iterative.Preconditioner.
func (p *kronPrecond) Precondition(z, r []float64) {
	b := p.b
	if err := parallel.Split(p.workers, b, func(_, lo, hi int) error {
		cols := p.cols[lo:hi]
		if p.qt == nil {
			for k, col := range cols {
				m := p.col[lo+k]
				for i := range col {
					col[i] = r[i*b+m]
				}
			}
		} else {
			qt := p.qt[lo*b : hi*b]
			for i := 0; i < p.n; i++ {
				ri := r[i*b : i*b+b : i*b+b]
				for k, col := range cols {
					s := 0.0
					for j, v := range qt[k*b : k*b+b] {
						s += v * ri[j]
					}
					col[i] = s
				}
			}
		}
		for s := lo; s < hi; {
			e := s + 1
			for e < hi && p.fac[e] == p.fac[s] {
				e++
			}
			solveCols(p.facs[p.fac[s]], p.cols[s:e])
			s = e
		}
		if p.qt == nil {
			for k, col := range cols {
				m := p.col[lo+k]
				for i, v := range col {
					z[i*b+m] = v
				}
			}
		}
		return nil
	}); err != nil {
		panic(err) // a panic in a solve: re-raise it on the caller
	}
	if p.qt == nil {
		return
	}
	if err := parallel.Split(p.workers, p.n, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			zi := z[i*b : i*b+b : i*b+b]
			for j := range zi {
				s := 0.0
				for k, col := range p.cols {
					s += p.qt[k*b+j] * col[i]
				}
				zi[j] = s
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}
}

// solveCols solves every column in place on f: one batched SolveMany
// when f offers it (a SuperFactor, bitwise equal per column to
// SolveTo), column by column otherwise (a mean ladder escalated to LU).
func solveCols(f numguard.Solver, cols [][]float64) {
	if ms, ok := f.(numguard.ManySolver); ok {
		ms.SolveMany(cols, cols)
		return
	}
	for _, col := range cols {
		f.SolveTo(col, col)
	}
}

package galerkin

import (
	"cmp"
	"math"
	"slices"

	"opera/internal/randvar"
	"opera/internal/sparse"
)

// This file plans the eigenbasis recursions. When every non-identity G
// term is c_t·G₀ and every non-identity C term c_t·C₀ (the Table 1
// model, Eq. 13–14), the step operator of Eq. 19 is exactly
// G₀ ⊗ T̂_G + (C₀/h) ⊗ T̂_C, T̂ = I + Σ_t c_t·T_t. A basis Q of
// T̂_C·q = λ·T̂_G·q with Qᵀ·T̂_G·Q = I and Qᵀ·T̂_C·Q = Λ splits it: with
// x = (I ⊗ Q)·y, y_m ← (G₀ + λ_m·C₀/h)⁻¹·(((I ⊗ Qᵀ)·ũ)_m + λ_m·C₀·y_m/h),
// and DC is y_m = G₀⁻¹·((I ⊗ Qᵀ)·ũ)_m. A deterministic operator (§5.1,
// Eq. 27) is the case Q = I, λ ≡ 1. Column m's excitation is
// Σ_j a_jm·u_j, a_jm = (Qᵀ·w_j)_m, so by linearity the columns sharing a
// shift can also be stepped one recursion per source.

// separableTol bounds a fitted term's misfit ‖A_t − c_t·M‖_F relative
// to ‖A_t‖_F: rounding level, so only terms proportional to the mean
// node matrix M fit.
const separableTol = 1e-12

// shiftTol groups eigenvalues that agree to a few ulps into one shift:
// columns T̂_C leaves alone have λ = 1 exactly but read a few ulps
// apart after the eigen solve, and one factor serves them all.
const shiftTol = 8 * 0x1p-52

// recursion is one independent scalar recursion
// y ← (G₀ + λ·C₀/h)⁻¹·(e(t) + λ·C₀·y/h): its shift λ and its excitation
// e = Σ_j coef[j]·u_j over the J sources.
type recursion struct {
	shift int
	coef  []float64
}

// eigenPlan is how the eigenbasis path steps a separable system.
type eigenPlan struct {
	g0, c0 *sparse.Matrix // the mean node matrices
	shifts []float64      // ascending
	recs   []recursion    // in shift order
	mix    [][]float64    // chaos block m = Σ_r mix[m][r]·y_r
	mixed  bool           // Q ≠ I: some term varies the operator
}

// planEigen plans the recursions of sys, or returns nil when some
// non-identity term is no multiple of G₀ or C₀, T̂_G or T̂_C is not
// positive definite, or there is nothing to step.
func planEigen(sys *System) *eigenPlan {
	n, b := sys.N, sys.Basis.Size()
	p := &eigenPlan{g0: sumTerms(sys.GTerms, n), c0: sumTerms(sys.CTerms, n), mix: make([][]float64, b)}
	q := make([]float64, b*b)
	lambda := make([]float64, b)
	for m := range lambda {
		q[m*b+m], lambda[m] = 1, 1
	}
	varies := func(t Term) bool { return !isIdentity(t.Coupling) }
	if slices.ContainsFunc(sys.GTerms, varies) || slices.ContainsFunc(sys.CTerms, varies) {
		tg, okG := chaosFit(sys.GTerms, p.g0, b)
		tc, okC := chaosFit(sys.CTerms, p.c0, b)
		if !okG || !okC {
			return nil
		}
		var ok bool
		if q, lambda, ok = chaosEigenbasis(tg, tc, b); !ok {
			return nil
		}
		p.mixed = true
	}
	cols := make([]int, b)
	for m := range cols {
		cols[m] = m
	}
	slices.SortStableFunc(cols, func(x, y int) int { return cmp.Compare(lambda[x], lambda[y]) })
	for lo := 0; lo < b; {
		hi := lo + 1
		for hi < b && lambda[cols[hi]] <= lambda[cols[lo]]*(1+shiftTol) {
			hi++
		}
		p.addGroup(sys, q, lambda[cols[lo]], cols[lo:hi])
		lo = hi
	}
	if len(p.recs) == 0 {
		return nil // nothing excites the system; CG settles it at once
	}
	return p
}

// addGroup adds the recursions of the columns cols of Q (B×B,
// row-major), which share the shift l: one per source that drives them
// when those are no more than the driven columns, else one per driven
// column. With Q = I each source drives its own columns, so it always
// takes the per-source form, and every sum below adds exact zeros to one
// exact product: its coefficient is 1 and its weights are the source's.
func (p *eigenPlan) addGroup(sys *System, q []float64, l float64, cols []int) {
	b, nsrc := sys.Basis.Size(), len(sys.Weights)
	a := alloc2(len(cols), nsrc) // a[k][j] = (Qᵀ·w_j)_m, m = cols[k]
	for k, m := range cols {
		for j, w := range sys.Weights {
			for r, v := range w {
				a[k][j] += q[r*b+m] * v
			}
		}
	}
	nonzero := func(c float64) bool { return c != 0 }
	var srcs, driven []int
	for j := 0; j < nsrc; j++ {
		if slices.ContainsFunc(a, func(row []float64) bool { return row[j] != 0 }) {
			srcs = append(srcs, j)
		}
	}
	for k := range cols {
		if slices.ContainsFunc(a[k], nonzero) {
			driven = append(driven, k)
		}
	}
	if len(srcs) == 0 {
		return // no excitation reaches these columns: they stay +0
	}
	shift := len(p.shifts)
	p.shifts = append(p.shifts, l)
	if len(srcs) <= len(driven) {
		for _, j := range srcs {
			coef := make([]float64, nsrc)
			coef[j] = 1
			p.recs = append(p.recs, recursion{shift, coef})
			for r := range p.mix {
				w := 0.0
				for k, m := range cols {
					w += q[r*b+m] * a[k][j]
				}
				p.mix[r] = append(p.mix[r], w)
			}
		}
		return
	}
	for _, k := range driven {
		p.recs = append(p.recs, recursion{shift, a[k]})
		for r := range p.mix {
			p.mix[r] = append(p.mix[r], q[r*b+cols[k]])
		}
	}
}

// chaosFit fits every non-identity term of ts as c_t·m and returns
// T̂ = I + Σ_t c_t·T_t (B×B, row-major); ok is false when some term is
// not c_t·m to rounding.
func chaosFit(ts []Term, m *sparse.Matrix, b int) (t []float64, ok bool) {
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
			return nil, false
		}
		cp := term.Coupling
		for j := 0; j < cp.Cols; j++ {
			for p := cp.Colp[j]; p < cp.Colp[j+1]; p++ {
				t[cp.Rowi[p]*b+j] += c * cp.Val[p]
			}
		}
	}
	return t, true
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
// tc. With T̂_G = U·D·Uᵀ, W = U·D^(-1/2) has Wᵀ·T̂_G·W = I; with
// Wᵀ·T̂_C·W = V·Λ·Vᵀ, Q = W·V (row-major; column m is eigenvector m) has
// Qᵀ·T̂_G·Q = I and Qᵀ·T̂_C·Q = Λ. ok is false unless both are positive
// definite.
func chaosEigenbasis(tg, tc []float64, b int) (q, lambda []float64, ok bool) {
	d, w := symEigen(tg, b)
	for j, x := range d {
		if !(x > 0) {
			return nil, nil, false
		}
		for i := 0; i < b; i++ {
			w[i*b+j] /= math.Sqrt(x)
		}
	}
	lambda, v := symEigen(matMul(w, matMul(tc, w, b, false), b, true), b)
	if slices.ContainsFunc(lambda, func(x float64) bool { return !(x > 0) }) {
		return nil, nil, false
	}
	return matMul(w, v, b, false), lambda, true
}

// symEigen returns the eigenvalues of the symmetric part of the B×B
// row-major a and its eigenvectors as the columns of a row-major
// matrix, rotated until the off-diagonal is at rounding level,
// ε·‖a‖_F.
func symEigen(a []float64, b int) (lambda, v []float64) {
	s := alloc2(b, b)
	frob := 0.0
	for i := range s {
		for j := range s[i] {
			s[i][j] = (a[i*b+j] + a[j*b+i]) / 2
			frob += s[i][j] * s[i][j]
		}
	}
	lambda, rows := randvar.JacobiEigen(s, 0x1p-104*frob)
	v = make([]float64, b*b)
	for i, row := range rows {
		copy(v[i*b:], row)
	}
	return lambda, v
}

// matMul returns x·y, or xᵀ·y when xt, for B×B row-major x and y.
func matMul(x, y []float64, b int, xt bool) []float64 {
	z := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			xik := x[i*b+k]
			if xt {
				xik = x[k*b+i]
			}
			for j := 0; j < b; j++ {
				z[i*b+j] += xik * y[k*b+j]
			}
		}
	}
	return z
}

// Package iterative provides preconditioned iterative solvers for the
// symmetric positive definite systems arising in power grid analysis:
// conjugate gradients with Jacobi or zero-fill incomplete Cholesky
// preconditioning. The paper (§5.2) identifies preconditioned iterative
// block solvers as one route to scaling OPERA; this package supplies
// that route: the coupled Galerkin solve runs CG on the augmented
// system.
package iterative

import (
	"errors"
	"fmt"
	"math"

	"opera/internal/sparse"
)

// ErrNoConvergence is returned when an iterative solve fails to reach
// the requested tolerance within the iteration budget.
var ErrNoConvergence = errors.New("iterative: no convergence")

// Operator is anything that can apply a square linear map — a
// sparse.Matrix, the coupled Galerkin path's Kronecker-form operator,
// or a matrix-free closure.
type Operator interface {
	MulVec(y, x []float64)
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(y, x []float64)

// MulVec implements Operator.
func (f OperatorFunc) MulVec(y, x []float64) { f(y, x) }

// Preconditioner applies an approximation of A⁻¹: z ≈ A⁻¹·r.
type Preconditioner interface {
	Precondition(z, r []float64)
}

// PrecondFunc adapts a function to the Preconditioner interface.
type PrecondFunc func(z, r []float64)

// Precondition implements Preconditioner.
func (f PrecondFunc) Precondition(z, r []float64) { f(z, r) }

// Identity is the trivial (no-op) preconditioner.
type Identity struct{}

// Precondition copies r into z.
func (Identity) Precondition(z, r []float64) { copy(z, r) }

// Jacobi preconditions with the inverse diagonal of A.
type Jacobi struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from A's diagonal, which must
// be strictly positive.
func NewJacobi(a *sparse.Matrix) (*Jacobi, error) {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v <= 0 {
			return nil, fmt.Errorf("iterative: nonpositive diagonal %g at %d", v, i)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{invDiag: inv}, nil
}

// Precondition computes z = D⁻¹·r.
func (j *Jacobi) Precondition(z, r []float64) {
	for i := range r {
		z[i] = j.invDiag[i] * r[i]
	}
}

// CGOptions controls the conjugate gradient iteration.
type CGOptions struct {
	Tol     float64 // relative residual target; default 1e-10
	MaxIter int     // default 10·n
	M       Preconditioner
}

// CGResult reports convergence information.
type CGResult struct {
	Iterations int
	// Residual is the final recurrence residual ‖r_k‖₂/‖b‖₂: r_k is
	// updated as r ← r − α·A·p, never recomputed as b − A·x, and in
	// floating point it drifts from the true residual (and a corrupted
	// x never shows in it). It is therefore no backward-error
	// guarantee; a caller that needs one computes ‖b − A·x‖ itself, as
	// the coupled Galerkin path does on its verification cadence.
	Residual float64
}

// CGWork is caller-owned CG scratch: the residual, preconditioned
// residual, search direction and A·p vectors. Reusing one across the
// solves of a transient (one size, many right-hand sides) makes CG
// allocation-free. The zero value is ready to use; it grows on first
// use and must not be shared by concurrent solves.
type CGWork struct {
	r, z, p, ap []float64
}

// CG solves A·x = b for an SPD operator with preconditioned conjugate
// gradients. x is used as the starting guess and overwritten with the
// solution. It allocates its scratch per call; CGWork.CG reuses it.
func CG(a Operator, x, b []float64, opt CGOptions) (CGResult, error) {
	return new(CGWork).CG(a, x, b, opt)
}

// CG is the package-level CG running in w's vectors.
func (w *CGWork) CG(a Operator, x, b []float64, opt CGOptions) (CGResult, error) {
	n := len(b)
	if len(x) != n {
		return CGResult{}, fmt.Errorf("iterative: CG shapes x %d, b %d", len(x), len(b))
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	if opt.M == nil {
		opt.M = Identity{}
	}
	if cap(w.r) < n {
		w.r, w.z, w.p, w.ap = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	}
	r, z, p, ap := w.r[:n], w.z[:n], w.p[:n], w.ap[:n]
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return CGResult{Iterations: 0, Residual: 0}, nil
	}
	rn := norm2(r)
	if rn/bnorm <= opt.Tol {
		return CGResult{Iterations: 0, Residual: rn / bnorm}, nil
	}
	opt.M.Precondition(z, r)
	copy(p, z)
	rz := dot(r, z)
	for it := 0; it < opt.MaxIter; it++ {
		a.MulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return CGResult{Iterations: it, Residual: rn / bnorm},
				fmt.Errorf("iterative: CG breakdown (pᵀAp = %g); matrix not SPD?", pap)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		// Test the updated residual before preconditioning it: the
		// converged pass would precondition for a direction it never
		// takes.
		rn = norm2(r)
		if rn/bnorm <= opt.Tol {
			return CGResult{Iterations: it + 1, Residual: rn / bnorm}, nil
		}
		opt.M.Precondition(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	rn /= bnorm
	return CGResult{Iterations: opt.MaxIter, Residual: rn},
		fmt.Errorf("%w after %d iterations (residual %.3g)", ErrNoConvergence, opt.MaxIter, rn)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}

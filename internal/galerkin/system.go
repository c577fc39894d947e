// Package galerkin implements the stochastic Galerkin method at the
// heart of OPERA (paper §4.2, §5): the truncated chaos expansion of the
// grid response is substituted into the stochastic MNA equation, the
// residual is made orthogonal to every retained basis function, and the
// resulting deterministic block system (Eq. 19)
//
//	(G̃ + s·C̃)·a(s) = Ũ(s),  G̃ = Σ_k T_k ⊗ G_k,  C̃ = Σ_k T_k ⊗ C_k
//
// is assembled sparsely, factored once, and stepped through time. The
// package also provides the §5.1 decoupled fast path: when only the
// right-hand side is stochastic, the block system splits into N+1
// independent solves sharing a single factorization of (G + sC)
// (Eq. 27).
package galerkin

import (
	"fmt"

	"opera/internal/mna"
	"opera/internal/pce"
	"opera/internal/sparse"
)

// Term is one summand of a stochastic operator in Galerkin form: the
// chaos coupling matrix (B×B, from pce.Basis coupling constructors)
// paired with the node-level matrix it multiplies.
type Term struct {
	Coupling *sparse.Matrix
	A        *sparse.Matrix
}

// System is a stochastic MNA system ready for Galerkin projection.
type System struct {
	// N is the node count; B the chaos basis size.
	N     int
	Basis *pce.Basis
	// GTerms and CTerms define G(ξ) and C(ξ).
	GTerms, CTerms []Term
	// RHS fills the orthonormal chaos coefficients of the excitation at
	// time t: out[m][i] is coefficient m at node i. len(out) = B.
	RHS func(t float64, out [][]float64)
}

// Validate checks dimensions.
func (s *System) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("galerkin: node count %d", s.N)
	}
	if s.Basis == nil {
		return fmt.Errorf("galerkin: missing basis")
	}
	if s.RHS == nil {
		return fmt.Errorf("galerkin: missing RHS")
	}
	b := s.Basis.Size()
	for _, set := range [][]Term{s.GTerms, s.CTerms} {
		for _, t := range set {
			if t.Coupling.Rows != b || t.Coupling.Cols != b {
				return fmt.Errorf("galerkin: coupling is %dx%d, basis size %d", t.Coupling.Rows, t.Coupling.Cols, b)
			}
			if t.A.Rows != s.N || t.A.Cols != s.N {
				return fmt.Errorf("galerkin: node matrix is %dx%d, want %d", t.A.Rows, t.A.Cols, s.N)
			}
		}
	}
	if len(s.GTerms) == 0 {
		return fmt.Errorf("galerkin: G(ξ) has no terms")
	}
	return nil
}

// RHSOnly reports whether the operator is deterministic (every coupling
// is the identity), which enables the §5.1 decoupled fast path.
func (s *System) RHSOnly() bool {
	for _, t := range s.GTerms {
		if !isIdentity(t.Coupling) {
			return false
		}
	}
	for _, t := range s.CTerms {
		if !isIdentity(t.Coupling) {
			return false
		}
	}
	return true
}

// From lifts a stamped K-variable MNA system (the paper's linear
// variation model, Eq. 13–14) into Galerkin form on a K-dimensional
// basis. Dimension k of the basis carries the variable z_k; any Askey
// family may back it (the paper's Gaussian case is Hermite throughout).
// Each nonzero sensitivity adds one term, in k order.
func From(sys *mna.System, basis *pce.Basis) (*System, error) {
	k := sys.Dims()
	if basis.Dim() != k {
		return nil, fmt.Errorf("galerkin: basis has %d dimensions, the MNA variation model needs %d", basis.Dim(), k)
	}
	ident := basis.CouplingIdentity()
	gTerms := []Term{{Coupling: ident, A: sys.Ga}}
	cTerms := []Term{{Coupling: ident, A: sys.Ca}}
	proj := make([][]float64, k)
	for d := 0; d < k; d++ {
		g, c := sys.GSens[d], sys.CSens[d]
		if g != nil && g.NNZ() > 0 {
			gTerms = append(gTerms, Term{Coupling: basis.CouplingLinear(d), A: g})
		}
		if c != nil && c.NNZ() > 0 {
			cTerms = append(cTerms, Term{Coupling: basis.CouplingLinear(d), A: c})
		}
		proj[d] = basis.ProjectVariable(d)
	}
	// Excitation chaos coefficients: u = ua + Σ_k u_k·z_k, with the raw
	// variables expanded on the (possibly non-Gaussian) basis.
	n := sys.N
	ua := make([]float64, n)
	uk := make([][]float64, k)
	for d := range uk {
		uk[d] = make([]float64, n)
	}
	rhs := func(t float64, out [][]float64) {
		sys.RHS(t, ua, uk)
		for m, dst := range out {
			// dst = Σ_k proj[k][m]·u_k (+ ua for the mean), summed in k
			// order for every node.
			p := proj[0][m]
			for i, v := range uk[0] {
				dst[i] = p * v
			}
			for d := 1; d < k; d++ {
				p := proj[d][m]
				for i, v := range uk[d] {
					dst[i] += p * v
				}
			}
			if m == 0 {
				for i, v := range ua {
					dst[i] += v
				}
			}
		}
	}
	return &System{
		N:      n,
		Basis:  basis,
		GTerms: gTerms,
		CTerms: cTerms,
		RHS:    rhs,
	}, nil
}

// AssembleG builds the full block matrix G̃.
func (s *System) AssembleG() *sparse.Matrix {
	return sparse.AssembleBlocks(s.Basis.Size(), s.N, toBlockTerms(s.GTerms))
}

// AssembleC builds the full block matrix C̃.
func (s *System) AssembleC() *sparse.Matrix {
	if len(s.CTerms) == 0 {
		return sparse.NewMatrix(s.Basis.Size()*s.N, s.Basis.Size()*s.N)
	}
	return sparse.AssembleBlocks(s.Basis.Size(), s.N, toBlockTerms(s.CTerms))
}

func toBlockTerms(ts []Term) []sparse.BlockTerm {
	out := make([]sparse.BlockTerm, len(ts))
	for i, t := range ts {
		out[i] = sparse.BlockTerm{T: t.Coupling, A: t.A}
	}
	return out
}

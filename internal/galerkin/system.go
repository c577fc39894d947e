// Package galerkin implements the stochastic Galerkin method at the
// heart of OPERA (paper §4.2, §5): the truncated chaos expansion of the
// grid response is substituted into the stochastic MNA equation, the
// residual is made orthogonal to every retained basis function, and the
// resulting deterministic block system (Eq. 19)
//
//	(G̃ + s·C̃)·a(s) = Ũ(s),  G̃ = Σ_k T_k ⊗ G_k,  C̃ = Σ_k T_k ⊗ C_k
//
// is assembled sparsely, factored once, and stepped through time.
//
// The excitation Ũ is factored: J node-level sources u_j(t) and, for
// each, its B chaos weights, so block m of Ũ is Σ_j w_j[m]·u_j(t). Source
// 0 alone weights the mean block and every other block draws on at most
// one source, so each block is one scalar times one source.
//
// An exactly separable system steps as independent recursions in the
// chaos eigenbasis, each column on its own shifted companion
// G₀ + λ·C₀/h: the Table 1 model (Eq. 13–14), and the §5.1 case where
// only the right-hand side is stochastic (Eq. 27), whose recursions
// share one factorization and solve each live excitation source once.
// Every other system runs preconditioned CG on the augmented system.
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
	// Sources fills the excitation sources at time t, overwriting every
	// entry: u[j][i] is source j at node i, len(u) = len(Weights).
	Sources func(t float64, u [][]float64)
	// Weights[j] holds source j's B orthonormal chaos coefficients:
	// block m of the excitation is Σ_j Weights[j][m]·u_j(t). Source 0
	// alone weights the mean block (m = 0); every block m ≥ 1 draws on
	// at most one source.
	Weights [][]float64
}

// Validate checks dimensions.
func (s *System) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("galerkin: node count %d", s.N)
	}
	if s.Basis == nil {
		return fmt.Errorf("galerkin: missing basis")
	}
	if s.Sources == nil {
		return fmt.Errorf("galerkin: missing excitation sources")
	}
	b := s.Basis.Size()
	if len(s.Weights) == 0 {
		return fmt.Errorf("galerkin: excitation has no source weights")
	}
	owner := make([]int, b) // 1 + the source weighting block m; 0 for none
	for j, w := range s.Weights {
		if len(w) != b {
			return fmt.Errorf("galerkin: source %d has %d weights, basis size %d", j, len(w), b)
		}
		if j > 0 && w[0] != 0 {
			return fmt.Errorf("galerkin: source %d weights the mean block; only source 0 may", j)
		}
		for m, v := range w {
			if v == 0 {
				continue
			}
			if owner[m] != 0 {
				return fmt.Errorf("galerkin: block %d is weighted by sources %d and %d", m, owner[m]-1, j)
			}
			owner[m] = j + 1
		}
	}
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

// RHS fills the orthonormal chaos coefficients of the excitation at
// time t: out[m][i] is coefficient m at node i, Weights[j][m]·u_j(t)[i]
// for the source j that weights block m and +0 where none does.
// len(out) = B.
func (s *System) RHS(t float64, out [][]float64) {
	s.rhs(t, alloc2(len(s.Weights), s.N), out)
}

// rhs is RHS with caller-owned source vectors u.
func (s *System) rhs(t float64, u, out [][]float64) {
	s.Sources(t, u)
	for m, dst := range out {
		if j := s.source(m); j >= 0 {
			scaleTo(dst, s.Weights[j][m], u[j])
		} else {
			clear(dst)
		}
	}
}

// source returns the source that weights block m, or -1 when none does
// (Validate admits at most one).
func (s *System) source(m int) int {
	for j, w := range s.Weights {
		if w[m] != 0 {
			return j
		}
	}
	return -1
}

// scaleTo sets dst = w·src.
func scaleTo(dst []float64, w float64, src []float64) {
	for i, v := range src {
		dst[i] = w * v
	}
}

// From lifts a stamped K-variable MNA system (the paper's linear
// variation model, Eq. 13–14) into Galerkin form on a K-dimensional
// basis. Dimension k of the basis carries the variable z_k; any Askey
// family may back it (the paper's Gaussian case is Hermite throughout).
// Each nonzero sensitivity adds one term, in k order; LinearExcitation
// factors the excitation.
func From(sys *mna.System, basis *pce.Basis) (*System, error) {
	k := sys.Dims()
	if basis.Dim() != k {
		return nil, fmt.Errorf("galerkin: basis has %d dimensions, the MNA variation model needs %d", basis.Dim(), k)
	}
	ident := basis.CouplingIdentity()
	gTerms := []Term{{Coupling: ident, A: sys.Ga}}
	cTerms := []Term{{Coupling: ident, A: sys.Ca}}
	for d := 0; d < k; d++ {
		g, c := sys.GSens[d], sys.CSens[d]
		if g != nil && g.NNZ() > 0 {
			gTerms = append(gTerms, Term{Coupling: basis.CouplingLinear(d), A: g})
		}
		if c != nil && c.NNZ() > 0 {
			cTerms = append(cTerms, Term{Coupling: basis.CouplingLinear(d), A: c})
		}
	}
	sources, weights := LinearExcitation(basis, sys.N, sys.RHS)
	return &System{
		N:       sys.N,
		Basis:   basis,
		GTerms:  gTerms,
		CTerms:  cTerms,
		Sources: sources,
		Weights: weights,
	}, nil
}

// LinearExcitation factors the linear variation model's excitation
// u(t, z) = ua(t) + Σ_k z_k·u_k(t) over basis, for a system of n
// unknowns whose fill(t, ua, uk) evaluates ua and the K vectors u_k at
// time t. Source 1+k is u_k, weighted by the chaos coefficients of the
// raw variable z_k (pce.Basis.ProjectVariable) apart from its mean.
// Source 0 is the mean block, Σ_k ⟨z_k⟩·u_k + ua summed in k order for
// every node, with weight 1.
func LinearExcitation(basis *pce.Basis, n int, fill func(t float64, ua []float64, uk [][]float64)) (sources func(float64, [][]float64), weights [][]float64) {
	k := basis.Dim()
	mean := make([]float64, k) // ⟨z_k⟩, the mean coefficient of z_k
	weights = make([][]float64, k+1)
	weights[0] = make([]float64, basis.Size())
	weights[0][0] = 1
	for d := 0; d < k; d++ {
		w := basis.ProjectVariable(d)
		mean[d], w[0] = w[0], 0
		weights[1+d] = w
	}
	ua := make([]float64, n)
	sources = func(t float64, u [][]float64) {
		uk := u[1:]
		fill(t, ua, uk)
		dst := u[0]
		for i, v := range uk[0] {
			dst[i] = mean[0] * v
		}
		for d := 1; d < k; d++ {
			p := mean[d]
			for i, v := range uk[d] {
				dst[i] += p * v
			}
		}
		for i, v := range ua {
			dst[i] += v
		}
	}
	return sources, weights
}

// alloc2 returns a zeroed a×b matrix as row slices.
func alloc2(a, b int) [][]float64 {
	out := make([][]float64, a)
	for i := range out {
		out[i] = make([]float64, b)
	}
	return out
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

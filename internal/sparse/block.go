package sparse

import "fmt"

// BlockTerm describes one term of a block-structured (Kronecker-like)
// assembly: the scalar coupling matrix T (size B×B, B = number of
// blocks) multiplied blockwise with the node matrix A (size n×n). The
// assembled contribution to block (I, J) of the result is T[I][J]·A.
//
// This is exactly the structure of the stochastic Galerkin matrix
// (Eq. 19–21 of the paper): G̃ = Σ_k  T_k ⊗ A_k  with
// T_k[i][j] = E[ξ_k ψ_i ψ_j] (and T_0 = I for the mean matrix).
type BlockTerm struct {
	T *Matrix // B×B coupling among expansion coefficients
	A *Matrix // n×n node-level matrix
}

// AssembleBlocks builds Σ_terms T_k ⊗ A_k as a single (B·n)×(B·n) CSC
// matrix. Every T must be B×B and every A must be n×n with identical n.
// The block layout is coefficient-major: global index = I·n + i for
// block I and node i. With the roles swapped — the node matrix as T,
// the coupling as A — the same call gives the node-major layout
// i·B + I that the Galerkin block ladder factors.
func AssembleBlocks(b, n int, terms []BlockTerm) *Matrix {
	if b <= 0 || n <= 0 {
		panic(fmt.Sprintf("sparse: AssembleBlocks invalid sizes b=%d n=%d", b, n))
	}
	for _, t := range terms {
		if t.T.Rows != b || t.T.Cols != b {
			panic(fmt.Sprintf("sparse: coupling matrix is %dx%d, want %dx%d", t.T.Rows, t.T.Cols, b, b))
		}
		if t.A.Rows != n || t.A.Cols != n {
			panic(fmt.Sprintf("sparse: node matrix is %dx%d, want %dx%d", t.A.Rows, t.A.Cols, n, n))
		}
	}
	// First pass: count nnz per global column so storage is exact.
	N := b * n
	colp := make([]int, N+1)
	for _, term := range terms {
		for J := 0; J < b; J++ {
			nblk := term.T.Colp[J+1] - term.T.Colp[J] // blocks in block-column J
			if nblk == 0 {
				continue
			}
			base := J * n
			for j := 0; j < n; j++ {
				colp[base+j+1] += nblk * (term.A.Colp[j+1] - term.A.Colp[j])
			}
		}
	}
	for k := 0; k < N; k++ {
		colp[k+1] += colp[k]
	}
	nz := colp[N]
	rowi := make([]int, nz)
	val := make([]float64, nz)
	next := make([]int, N)
	copy(next, colp[:N])
	for _, term := range terms {
		for J := 0; J < b; J++ {
			base := J * n
			for q := term.T.Colp[J]; q < term.T.Colp[J+1]; q++ {
				I := term.T.Rowi[q]
				tij := term.T.Val[q]
				rbase := I * n
				for j := 0; j < n; j++ {
					gj := base + j
					for p := term.A.Colp[j]; p < term.A.Colp[j+1]; p++ {
						k := next[gj]
						next[gj]++
						rowi[k] = rbase + term.A.Rowi[p]
						val[k] = tij * term.A.Val[p]
					}
				}
			}
		}
	}
	m := &Matrix{Rows: N, Cols: N, Colp: colp, Rowi: rowi, Val: val}
	m.sortColumns()
	m.sumDuplicates()
	return m
}

// Kron returns the Kronecker product T ⊗ A; a convenience wrapper over
// AssembleBlocks for a single term (used by tests).
func Kron(t, a *Matrix) *Matrix {
	if t.Rows != t.Cols || a.Rows != a.Cols {
		panic("sparse: Kron requires square factors")
	}
	return AssembleBlocks(t.Rows, a.Rows, []BlockTerm{{T: t, A: a}})
}

package sparse

import "fmt"

// MulVec computes y = A·x. y must have length A.Rows and is overwritten.
func (m *Matrix) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y)))
	}
	countMatvec(m.NNZ())
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.Colp[j]; p < m.Colp[j+1]; p++ {
			y[m.Rowi[p]] += m.Val[p] * xj
		}
	}
}

// MulVecAdd computes y += alpha·A·x without zeroing y first.
func (m *Matrix) MulVecAdd(y []float64, alpha float64, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecAdd dimension mismatch: A is %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y)))
	}
	countMatvec(m.NNZ())
	for j := 0; j < m.Cols; j++ {
		xj := alpha * x[j]
		if xj == 0 {
			continue
		}
		for p := m.Colp[j]; p < m.Colp[j+1]; p++ {
			y[m.Rowi[p]] += m.Val[p] * xj
		}
	}
}

// MulVecT computes y = Aᵀ·x. y must have length A.Cols.
func (m *Matrix) MulVecT(y, x []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: A is %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for p := m.Colp[j]; p < m.Colp[j+1]; p++ {
			s += m.Val[p] * x[m.Rowi[p]]
		}
		y[j] = s
	}
}

// Scale multiplies every stored value by alpha, in place, and returns m.
func (m *Matrix) Scale(alpha float64) *Matrix {
	for i := range m.Val {
		m.Val[i] *= alpha
	}
	return m
}

// Add returns alpha·A + beta·B as a new matrix. A and B must have equal
// shape. The result has sorted columns with duplicates merged.
func Add(alpha float64, a *Matrix, beta float64, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n := a.Cols
	colp := make([]int, n+1)
	rowi := make([]int, 0, a.NNZ()+b.NNZ())
	val := make([]float64, 0, a.NNZ()+b.NNZ())
	for j := 0; j < n; j++ {
		pa, ea := a.Colp[j], a.Colp[j+1]
		pb, eb := b.Colp[j], b.Colp[j+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && a.Rowi[pa] < b.Rowi[pb]):
				rowi = append(rowi, a.Rowi[pa])
				val = append(val, alpha*a.Val[pa])
				pa++
			case pa >= ea || b.Rowi[pb] < a.Rowi[pa]:
				rowi = append(rowi, b.Rowi[pb])
				val = append(val, beta*b.Val[pb])
				pb++
			default: // equal row index
				rowi = append(rowi, a.Rowi[pa])
				val = append(val, alpha*a.Val[pa]+beta*b.Val[pb])
				pa++
				pb++
			}
		}
		colp[j+1] = len(rowi)
	}
	return &Matrix{Rows: a.Rows, Cols: n, Colp: colp, Rowi: rowi, Val: val}
}

// Mul returns the product A·B as a new matrix (classic Gustavson
// column-by-column SpGEMM). Intended for moderate sizes (Galerkin
// coupling tensors, tests), not huge products.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	t := NewTriplet(a.Rows, b.Cols, a.NNZ()+b.NNZ())
	work := make([]float64, a.Rows)
	mark := make([]int, a.Rows)
	for i := range mark {
		mark[i] = -1
	}
	pattern := make([]int, 0, a.Rows)
	for j := 0; j < b.Cols; j++ {
		pattern = pattern[:0]
		for p := b.Colp[j]; p < b.Colp[j+1]; p++ {
			k := b.Rowi[p]
			bkj := b.Val[p]
			for q := a.Colp[k]; q < a.Colp[k+1]; q++ {
				i := a.Rowi[q]
				if mark[i] != j {
					mark[i] = j
					work[i] = 0
					pattern = append(pattern, i)
				}
				work[i] += a.Val[q] * bkj
			}
		}
		for _, i := range pattern {
			t.Add(i, j, work[i])
		}
	}
	return t.Compile()
}

// Norm1 returns the 1-norm (maximum absolute column sum).
func (m *Matrix) Norm1() float64 {
	max := 0.0
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for p := m.Colp[j]; p < m.Colp[j+1]; p++ {
			s += abs(m.Val[p])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormInf returns the ∞-norm (maximum absolute row sum). For the
// symmetric matrices of this codebase it coincides with Norm1.
func (m *Matrix) NormInf() float64 {
	rowSum := make([]float64, m.Rows)
	for p, i := range m.Rowi {
		rowSum[i] += abs(m.Val[p])
	}
	max := 0.0
	for _, s := range rowSum {
		if s > max {
			max = s
		}
	}
	return max
}

// DropTol removes stored entries with |value| <= tol, compacting in
// place, and returns m. DropTol(0) removes exact structural zeros.
func (m *Matrix) DropTol(tol float64) *Matrix {
	nz := 0
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.Colp[j], m.Colp[j+1]
		m.Colp[j] = nz
		for p := lo; p < hi; p++ {
			if abs(m.Val[p]) > tol {
				m.Rowi[nz] = m.Rowi[p]
				m.Val[nz] = m.Val[p]
				nz++
			}
		}
	}
	m.Colp[m.Cols] = nz
	m.Rowi = m.Rowi[:nz]
	m.Val = m.Val[:nz]
	return m
}

// Diag extracts the diagonal into a new slice of length min(Rows, Cols).
func (m *Matrix) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		for p := m.Colp[j]; p < m.Colp[j+1]; p++ {
			if m.Rowi[p] == j {
				d[j] += m.Val[p]
			}
		}
	}
	return d
}

// IsSymmetric reports whether the matrix is numerically symmetric to
// within tol on every entry. O(nnz log nnz); for tests and validation.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	at := m.Transpose()
	d := Add(1, m, -1, at)
	for _, v := range d.Val {
		if abs(v) > tol {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

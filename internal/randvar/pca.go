package randvar

import (
	"fmt"
	"math"
)

// PCA holds a principal-component decomposition of a covariance matrix
// Σ = V·Λ·Vᵀ, giving the linear map x = µ + V·√Λ·z that turns i.i.d.
// standard normal z into correlated Gaussians with covariance Σ. This
// implements the decorrelation step of the paper's §5: correlated
// process parameters become independent chaos dimensions.
type PCA struct {
	Dim    int
	Mean   []float64
	Vecs   [][]float64 // columns are eigenvectors
	Lambda []float64   // eigenvalues, descending
}

// NewPCA decomposes the symmetric positive semidefinite covariance
// matrix cov (dense, row-major). Negative eigenvalues beyond roundoff
// cause an error; tiny negatives are clamped to zero.
func NewPCA(mean []float64, cov [][]float64) (*PCA, error) {
	n := len(cov)
	if len(mean) != n {
		return nil, fmt.Errorf("randvar: mean length %d != covariance size %d", len(mean), n)
	}
	for i := range cov {
		if len(cov[i]) != n {
			return nil, fmt.Errorf("randvar: covariance is ragged at row %d", i)
		}
		for j := range cov[i] {
			if math.Abs(cov[i][j]-cov[j][i]) > 1e-10*(1+math.Abs(cov[i][j])) {
				return nil, fmt.Errorf("randvar: covariance not symmetric at (%d,%d)", i, j)
			}
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), cov[i]...)
	}
	vals, vecs := JacobiEigen(a, 1e-24)
	// Sort descending by eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if vals[idx[j]] > vals[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	scale := 0.0
	for _, v := range vals {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	lambda := make([]float64, n)
	cols := make([][]float64, n)
	for k, id := range idx {
		v := vals[id]
		if v < 0 {
			if v < -1e-9*scale {
				return nil, fmt.Errorf("randvar: covariance has negative eigenvalue %g", v)
			}
			v = 0
		}
		lambda[k] = v
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = vecs[i][id]
		}
		cols[k] = col
	}
	m := append([]float64(nil), mean...)
	return &PCA{Dim: n, Mean: m, Vecs: cols, Lambda: lambda}, nil
}

// Transform maps i.i.d. standard normal z to correlated x with the
// decomposed mean and covariance.
func (p *PCA) Transform(z []float64) []float64 {
	if len(z) != p.Dim {
		panic(fmt.Sprintf("randvar: Transform input length %d != %d", len(z), p.Dim))
	}
	x := append([]float64(nil), p.Mean...)
	for k := 0; k < p.Dim; k++ {
		s := math.Sqrt(p.Lambda[k]) * z[k]
		if s == 0 {
			continue
		}
		for i := 0; i < p.Dim; i++ {
			x[i] += p.Vecs[k][i] * s
		}
	}
	return x
}

// JacobiEigen diagonalizes a dense symmetric matrix in place with the
// cyclic Jacobi rotation method, returning eigenvalues and the matrix
// of eigenvectors (columns), in no particular order. Sweeps stop once
// the squared off-diagonal sum falls below tol, or after 100. It is
// the repository's one dense symmetric eigensolver, sized for small
// matrices: the parameter covariances of variation models (tol 1e-24)
// and the B×B chaos matrices of the Galerkin eigenbasis recursions.
func JacobiEigen(a [][]float64, tol float64) ([]float64, [][]float64) {
	n := len(a)
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < tol {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if a[p][q] == 0 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
	}
	return vals, v
}

// LatinHypercubeNormal draws n quasi-stratified standard normal samples
// per dimension: each dimension's unit interval is divided into n
// strata, one uniform draw per stratum, randomly permuted across
// samples, then mapped through the normal quantile function. Reduces
// Monte Carlo variance for smooth integrands.
func LatinHypercubeNormal(rng interface {
	Float64() float64
	Perm(int) []int
}, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
	}
	for d := 0; d < dim; d++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			out[i][d] = NormalQuantile(u)
		}
	}
	return out
}

// NormalQuantile is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

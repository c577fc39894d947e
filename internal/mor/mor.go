// Package mor implements PRIMA-style model order reduction for RC power
// grids — the complexity-reduction route the paper's §5.2 points at
// ("computational complexity of OPERA can be significantly reduced by
// efficient techniques like model order reduction"): when only a few
// observation nodes matter (the top-layer voltages "are typically of no
// interest to the designer"), the grid (G, C, B) is projected onto a
// block Krylov subspace by a congruence transform, producing a reduced
// model of a few dozen states that matches the first q block moments of
// the port transfer function about an expansion point s₀ and preserves
// passivity (G, C SPD ⇒ Gr, Cr SPD).
package mor

import (
	"fmt"
	"math"

	"opera/internal/factor"
	"opera/internal/order"
	"opera/internal/sparse"
)

// Options configures a reduction.
type Options struct {
	// Ports lists the observed/driven nodes (columns of the incidence
	// matrix B).
	Ports []int
	// Inputs optionally adds arbitrary excitation-shape vectors (length
	// n) to the starting block, so distributed drives — pad injections,
	// block current patterns — are inside the Krylov subspace even
	// though they are not ports. Essential when the model is driven by
	// sources away from the observation ports.
	Inputs [][]float64
	// Moments is the number of block moments q to match (reduced size ≤
	// q·(len(Ports)+len(Inputs)), capped at n).
	Moments int
	// S0 is the real positive expansion point; 0 selects 1/(RC) of the
	// grid heuristically via the mean diagonal ratio.
	S0 float64
}

// Reduced is the projected model: Cr·dz/dt + Gr·z = Br·u(t), with port
// voltages y = Brᵀ·z. V maps reduced states back to node space.
type Reduced struct {
	K      int // reduced dimension
	NPorts int
	Gr, Cr [][]float64 // dense K×K
	Br     [][]float64 // K×NPorts
	V      [][]float64 // n×K (orthonormal columns)
}

// Reduce builds the reduced model of the SPD pair (g, c) with unit
// current injections at the ports.
func Reduce(g, c *sparse.Matrix, opts Options) (*Reduced, error) {
	n := g.Rows
	if g.Cols != n || c.Rows != n || c.Cols != n {
		return nil, fmt.Errorf("mor: G is %dx%d, C is %dx%d", g.Rows, g.Cols, c.Rows, c.Cols)
	}
	m := len(opts.Ports)
	if m == 0 {
		return nil, fmt.Errorf("mor: no ports")
	}
	for _, p := range opts.Ports {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("mor: port %d outside [0,%d)", p, n)
		}
	}
	q := opts.Moments
	if q < 1 {
		q = 2
	}
	s0 := opts.S0
	if s0 <= 0 {
		s0 = heuristicS0(g, c)
	}
	// Factor (G + s0·C) once.
	shifted := sparse.Add(1, g, s0, c)
	perm := order.Permute(order.MethodAMD, shifted)
	fac, err := factor.Cholesky(shifted, perm)
	if err != nil {
		return nil, fmt.Errorf("mor: shifted factorization: %w", err)
	}
	// Block Arnoldi: R0 = A⁻¹·B, R_{j+1} = A⁻¹·C·R_j, orthonormalized by
	// modified Gram–Schmidt against all previous columns.
	var basis [][]float64 // columns, each length n
	addColumn := func(v []float64) bool {
		w := append([]float64(nil), v...)
		// Normalize first: propagated vectors scale with ‖C‖ (femto-
		// farads), so the deflation test must be relative, not absolute.
		nrm0 := math.Sqrt(dot(w, w))
		if nrm0 == 0 {
			return false
		}
		scale(w, 1/nrm0)
		for _, u := range basis {
			d := dot(u, w)
			axpy(w, -d, u)
		}
		// Re-orthogonalize once for robustness.
		for _, u := range basis {
			d := dot(u, w)
			axpy(w, -d, u)
		}
		nrm := math.Sqrt(dot(w, w))
		if nrm < 1e-10 {
			return false // deflated: direction already represented
		}
		scale(w, 1/nrm)
		basis = append(basis, w)
		return true
	}
	block := make([][]float64, 0, m+len(opts.Inputs))
	for _, p := range opts.Ports {
		e := make([]float64, n)
		e[p] = 1
		block = append(block, fac.Solve(e))
	}
	for i, in := range opts.Inputs {
		if len(in) != n {
			return nil, fmt.Errorf("mor: input %d has length %d, want %d", i, len(in), n)
		}
		block = append(block, fac.Solve(in))
	}
	for blk := 0; blk < q; blk++ {
		next := make([][]float64, 0, m)
		for _, v := range block {
			if addColumn(v) {
				next = append(next, basis[len(basis)-1])
			}
			if len(basis) >= n {
				break
			}
		}
		if len(basis) >= n || blk == q-1 || len(next) == 0 {
			break
		}
		// Propagate: v ← (G+s0C)⁻¹·C·v for the freshly added directions.
		cv := make([]float64, n)
		for i, v := range next {
			c.MulVec(cv, v)
			next[i] = fac.Solve(cv)
		}
		block = next
	}
	k := len(basis)
	if k == 0 {
		return nil, fmt.Errorf("mor: Krylov subspace collapsed")
	}
	red := &Reduced{K: k, NPorts: m, V: basis}
	red.Gr = project(g, basis)
	red.Cr = project(c, basis)
	red.Br = make([][]float64, k)
	for i := 0; i < k; i++ {
		red.Br[i] = make([]float64, m)
		for j, p := range opts.Ports {
			red.Br[i][j] = basis[i][p]
		}
	}
	return red, nil
}

// heuristicS0 picks 1/τ with τ the mean diagonal C/G ratio.
func heuristicS0(g, c *sparse.Matrix) float64 {
	gd, cd := g.Diag(), c.Diag()
	sum, cnt := 0.0, 0
	for i := range gd {
		if gd[i] > 0 && cd[i] > 0 {
			sum += cd[i] / gd[i]
			cnt++
		}
	}
	if cnt == 0 || sum == 0 {
		return 1
	}
	return float64(cnt) / sum
}

// project computes Vᵀ·A·V densely.
func project(a *sparse.Matrix, v [][]float64) [][]float64 {
	n := a.Rows
	k := len(v)
	av := make([][]float64, k)
	tmp := make([]float64, n)
	for j := 0; j < k; j++ {
		a.MulVec(tmp, v[j])
		av[j] = append([]float64(nil), tmp...)
	}
	out := make([][]float64, k)
	for i := 0; i < k; i++ {
		out[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			out[i][j] = dot(v[i], av[j])
		}
	}
	return out
}

// PortTransfer evaluates the reduced transfer matrix H(s) = Brᵀ·(Gr +
// s·Cr)⁻¹·Br (m×m, dense).
func (r *Reduced) PortTransfer(s float64) ([][]float64, error) {
	k := r.K
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
		for j := range a[i] {
			a[i][j] = r.Gr[i][j] + s*r.Cr[i][j]
		}
	}
	lu, piv, err := denseLU(a)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, r.NPorts)
	col := make([]float64, k)
	for j := 0; j < r.NPorts; j++ {
		for i := 0; i < k; i++ {
			col[i] = r.Br[i][j]
		}
		x := denseLUSolve(lu, piv, col)
		// Row i of H's column j: Brᵀ·x.
		for i := 0; i < r.NPorts; i++ {
			if out[i] == nil {
				out[i] = make([]float64, r.NPorts)
			}
			s := 0.0
			for l := 0; l < k; l++ {
				s += r.Br[l][i] * x[l]
			}
			out[i][j] = s
		}
	}
	return out, nil
}

// Transient runs backward Euler on the reduced model with port current
// inputs u(t) (length NPorts, drawn out of the ports: the RHS is
// −Br·u + any DC pad behavior already inside G). visit receives the
// port voltages at each step.
func (r *Reduced) Transient(step float64, steps int, u func(t float64, out []float64), visit func(stepIdx int, t float64, ports []float64)) error {
	if step <= 0 || steps < 1 {
		return fmt.Errorf("mor: bad stepping %g x %d", step, steps)
	}
	k := r.K
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
		for j := range a[i] {
			a[i][j] = r.Gr[i][j] + r.Cr[i][j]/step
		}
	}
	lu, piv, err := denseLU(a)
	if err != nil {
		return err
	}
	glu, gpiv, err := denseLU(r.Gr)
	if err != nil {
		return err
	}
	um := make([]float64, r.NPorts)
	rhs := make([]float64, k)
	buildRHS := func(t float64) {
		u(t, um)
		for i := 0; i < k; i++ {
			s := 0.0
			for j := 0; j < r.NPorts; j++ {
				s += r.Br[i][j] * um[j]
			}
			rhs[i] = s
		}
	}
	ports := make([]float64, r.NPorts)
	emit := func(idx int, t float64, z []float64) {
		for j := 0; j < r.NPorts; j++ {
			s := 0.0
			for i := 0; i < k; i++ {
				s += r.Br[i][j] * z[i]
			}
			ports[j] = s
		}
		if visit != nil {
			visit(idx, t, ports)
		}
	}
	buildRHS(0)
	z := denseLUSolve(glu, gpiv, rhs)
	emit(0, 0, z)
	cz := make([]float64, k)
	for s := 1; s <= steps; s++ {
		t := float64(s) * step
		buildRHS(t)
		for i := 0; i < k; i++ {
			cz[i] = 0
			for j := 0; j < k; j++ {
				cz[i] += r.Cr[i][j] * z[j]
			}
		}
		for i := 0; i < k; i++ {
			rhs[i] += cz[i] / step
		}
		z = denseLUSolve(lu, piv, rhs)
		emit(s, t, z)
	}
	return nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// denseLU factors a dense square matrix with partial pivoting; a is
// copied, not modified.
func denseLU(a [][]float64) ([][]float64, []int, error) {
	n := len(a)
	lu := make([][]float64, n)
	for i := range lu {
		lu[i] = append([]float64(nil), a[i]...)
	}
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		p := col
		for i := col + 1; i < n; i++ {
			if math.Abs(lu[i][col]) > math.Abs(lu[p][col]) {
				p = i
			}
		}
		if lu[p][col] == 0 {
			return nil, nil, fmt.Errorf("mor: singular reduced matrix at column %d", col)
		}
		lu[col], lu[p] = lu[p], lu[col]
		piv[col], piv[p] = piv[p], piv[col]
		d := lu[col][col]
		for i := col + 1; i < n; i++ {
			f := lu[i][col] / d
			lu[i][col] = f
			for j := col + 1; j < n; j++ {
				lu[i][j] -= f * lu[col][j]
			}
		}
	}
	return lu, piv, nil
}

func denseLUSolve(lu [][]float64, piv []int, b []float64) []float64 {
	n := len(lu)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= lu[i][j] * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu[i][j] * x[j]
		}
		x[i] /= lu[i][i]
	}
	return x
}

package galerkin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opera/internal/factor"
	"opera/internal/numguard"
	"opera/internal/order"
	"opera/internal/sparse"
)

// TestBlockAndFlatAssemblyAgree cross-validates the two layouts of the
// augmented matrix: assembleBlock (node-major, the block ladder's
// matrix) and sparse.AssembleBlocks on the same terms
// (coefficient-major, Eq. 19 reference). The same random term set,
// one of them a C term scaled by s, must produce the same matrix up to
// the block-layout permutation.
func TestBlockAndFlatAssemblyAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)  // nodes
		bs := 2 + rng.Intn(4) // basis size
		// Random symmetric node pattern with diagonal.
		tr := sparse.NewTriplet(n, n, 3*n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 1+rng.Float64())
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					v := rng.NormFloat64()
					tr.Add(i, j, v)
					tr.Add(j, i, v)
				}
			}
		}
		a1 := tr.Compile()
		a2 := a1.Clone()
		for i := range a2.Val {
			a2.Val[i] *= 0.3 * rng.NormFloat64()
		}
		a2 = sparse.Add(0.5, a2, 0.5, a2.Transpose())
		// Random symmetric couplings.
		randCoupling := func(identity bool) *sparse.Matrix {
			if identity {
				return sparse.Identity(bs)
			}
			d := make([][]float64, bs)
			for i := range d {
				d[i] = make([]float64, bs)
			}
			for i := 0; i < bs; i++ {
				for j := 0; j <= i; j++ {
					if rng.Float64() < 0.6 {
						v := rng.NormFloat64()
						d[i][j], d[j][i] = v, v
					}
				}
			}
			return sparse.FromDense(d)
		}
		t1 := randCoupling(true)
		t2 := randCoupling(false)
		sc := 1 + rng.Float64() // the C term's scale, 1/h in the solver

		// Path 1: the block ladder's node-major assembly (node·bs + m).
		nodeMajor := assembleBlock(n, bs, []Term{{Coupling: t1, A: a1}}, []Term{{Coupling: t2, A: a2}}, sc)
		// Path 2: Kronecker assembly (coefficient-major: m·n + node).
		flat := sparse.AssembleBlocks(bs, n, []sparse.BlockTerm{
			{T: t1, A: a1}, {T: t2.Clone().Scale(sc), A: a2},
		})
		// Compare under the layout permutation.
		for i := 0; i < n*bs; i++ {
			for j := 0; j < n*bs; j++ {
				ni, mi := i/bs, i%bs
				nj, mj := j/bs, j%bs
				want := flat.At(mi*n+ni, mj*n+nj)
				got := nodeMajor.At(i, j)
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBlockCholeskyAgreesWithFlatCholesky solves the same random SPD
// augmented system through the block ladder on assembleBlock's
// node-major matrix, under a fill-reducing node ordering, and through
// the simplicial Cholesky of the coefficient-major flat matrix.
func TestBlockCholeskyAgreesWithFlatCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(8)
		bs := 2 + rng.Intn(3)
		// SPD mean matrix: Laplacian-like.
		tr := sparse.NewTriplet(n, n, 4*n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 3)
			if i+1 < n {
				tr.Add(i, i+1, -1)
				tr.Add(i+1, i, -1)
			}
		}
		a := tr.Compile()
		pert := a.Clone().Scale(0.05)
		coup := make([][]float64, bs)
		for i := range coup {
			coup[i] = make([]float64, bs)
		}
		for i := 0; i < bs; i++ {
			for j := 0; j <= i; j++ {
				v := 0.3 * rng.NormFloat64()
				coup[i][j], coup[j][i] = v, v
			}
		}
		terms := []Term{{Coupling: sparse.Identity(bs), A: a}, {Coupling: sparse.FromDense(coup), A: pert}}
		comp := assembleBlock(n, bs, terms, nil, 0)
		lad := numguard.NewLadder("step", numguard.Config{}, comp, comp.NormInf(),
			blockRungs(comp, order.Permute(order.MethodAMD, a), bs, 2, numguard.Config{}, false, nil), nil)
		sf, err := factor.Cholesky(sparse.AssembleBlocks(bs, n, toBlockTerms(terms)), nil)
		if err != nil {
			t.Fatalf("trial %d: flat: %v", trial, err)
		}
		rhs := make([]float64, n*bs)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x1 := make([]float64, n*bs)
		if err := lad.Solve(0, x1, rhs); err != nil || lad.Rung() != "block-cholesky" {
			t.Fatalf("trial %d: block ladder on %s: %v", trial, lad.Rung(), err)
		}
		flatRHS := make([]float64, n*bs)
		for i := 0; i < n; i++ {
			for m := 0; m < bs; m++ {
				flatRHS[m*n+i] = rhs[i*bs+m]
			}
		}
		x2 := sf.Solve(flatRHS)
		for i := 0; i < n; i++ {
			for m := 0; m < bs; m++ {
				if got, want := x1[i*bs+m], x2[m*n+i]; math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
					t.Fatalf("trial %d: solutions differ at node %d block %d: %g vs %g", trial, i, m, got, want)
				}
			}
		}
	}
}

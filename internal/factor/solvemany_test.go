package factor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opera/internal/order"
	"opera/internal/sparse"
)

// TestSolveManyMatchesSolveTo is the bit-exactness contract of the
// batched kernel: for every column count, permutation and amalgamation
// setting, SolveMany over k right-hand sides — whole, split at an
// arbitrary column, or solved in place — equals k single-vector SolveTo
// calls bit for bit.
func TestSolveManyMatchesSolveTo(t *testing.T) {
	mats := map[string]*sparse.Matrix{
		"mesh":   laplacian2D(13, 11, 0.3),
		"random": randomSPD(rand.New(rand.NewSource(3)), 70, 0.08),
	}
	for name, a := range mats {
		perms := map[string][]int{"natural": nil, "amd": order.AMD(order.NewGraph(a))}
		for pname, perm := range perms {
			for _, relax := range []int{0, -1, 1 << 30} {
				_, f := superFactorize(t, a, perm, relax, 1)
				for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 13, 35} {
					t.Run(fmt.Sprintf("%s/%s/relax=%d/k=%d", name, pname, relax, k), func(t *testing.T) {
						prop := func(seed int64, split uint8) bool {
							return solveManyAgrees(t, f, k, seed, int(split)%(k+1))
						}
						if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// solveManyAgrees draws k right-hand sides (one of them all zero, so
// the +0 fixed point is covered) and checks the three batched forms
// against per-column SolveTo.
func solveManyAgrees(t *testing.T, f *SuperFactor, k int, seed int64, split int) bool {
	t.Helper()
	n := f.Sym.N
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, k)
	want := make([][]float64, k)
	for c := range b {
		b[c] = make([]float64, n)
		if c != k/2 {
			for i := range b[c] {
				b[c][i] = rng.NormFloat64()
			}
		}
		want[c] = make([]float64, n)
		f.SolveTo(want[c], b[c])
	}
	whole := make([][]float64, k)
	parts := make([][]float64, k)
	alias := make([][]float64, k)
	for c := range b {
		whole[c] = make([]float64, n)
		parts[c] = make([]float64, n)
		alias[c] = append([]float64(nil), b[c]...)
	}
	f.SolveMany(whole, b)
	f.SolveMany(parts[:split], b[:split])
	f.SolveMany(parts[split:], b[split:])
	f.SolveMany(alias, alias)
	for form, got := range map[string][][]float64{"whole": whole, "split": parts, "aliased": alias} {
		for c := range want {
			for i := range want[c] {
				if math.Float64bits(got[c][i]) != math.Float64bits(want[c][i]) {
					t.Errorf("%s (split %d): column %d row %d: %.17g != SolveTo %.17g",
						form, split, c, i, got[c][i], want[c][i])
					return false
				}
			}
		}
	}
	return true
}

// TestSolveManySteadyStateAllocs pins the batched kernel's hot-loop
// contract: once the pooled interleaved block is warm, a solve
// allocates nothing.
func TestSolveManySteadyStateAllocs(t *testing.T) {
	a := laplacian2D(12, 12, 0.5)
	_, f := superFactorize(t, a, order.AMD(order.NewGraph(a)), -1, 1)
	const k = 7
	x := make([][]float64, k)
	b := make([][]float64, k)
	for c := range b {
		x[c] = make([]float64, a.Rows)
		b[c] = make([]float64, a.Rows)
		for i := range b[c] {
			b[c][i] = float64((i+c)%7) - 3
		}
	}
	f.SolveMany(x, b) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { f.SolveMany(x, b) }); allocs > 0 {
		t.Errorf("SuperFactor.SolveMany allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkSolveMany compares one k-column sweep with k single-vector
// sweeps on the same factor.
func BenchmarkSolveMany(b *testing.B) {
	a := laplacian2D(60, 60, 0.5)
	n := a.Rows
	sym := CholAnalyzeSupernodal(a, order.AMD(order.NewGraph(a)), -1)
	f, err := sym.Factorize(a, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{3, 4, 7, 13} {
		x := make([][]float64, k)
		rhs := make([][]float64, k)
		for c := range rhs {
			x[c] = make([]float64, n)
			rhs[c] = make([]float64, n)
			for i := range rhs[c] {
				rhs[c][i] = float64((i+c)%11) - 5
			}
		}
		b.Run(fmt.Sprintf("k=%d/many", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SolveMany(x, rhs)
			}
		})
		b.Run(fmt.Sprintf("k=%d/single", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for c := range rhs {
					f.SolveTo(x[c], rhs[c])
				}
			}
		})
	}
}

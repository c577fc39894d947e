package sparse

import (
	"math/rand"
	"testing"
)

func TestPermVecToMatchesPermVec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 64
	p := rng.Perm(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := PermVec(p, x)
	got := make([]float64, n)
	PermVecTo(got, p, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PermVecTo[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	wantInv := InvPermVec(p, x)
	gotInv := make([]float64, n)
	InvPermVecTo(gotInv, p, x)
	for i := range wantInv {
		if gotInv[i] != wantInv[i] {
			t.Fatalf("InvPermVecTo[%d] = %g, want %g", i, gotInv[i], wantInv[i])
		}
	}
}

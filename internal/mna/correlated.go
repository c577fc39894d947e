package mna

import (
	"fmt"
	"math"

	"opera/internal/netlist"
	"opera/internal/randvar"
	"opera/internal/sparse"
)

// BuildCorrelated stamps the netlist for *correlated* physical
// variations under a full 3×3 covariance of the relative variations
// (order: W, T, Leff). The paper's §5 assumes ξW, ξT, ξL uncorrelated
// "without loss of generality — given their covariance matrix, they can
// always be transformed into a set of uncorrelated random variables by
// an orthogonal transformation technique like principal component
// analysis". This builder performs that transformation: the relative
// variations δ = (δW, δT, δL) with covariance Cov map to independent
// standard Gaussians z through δ = V·√Λ·z, and the per-dimension
// sensitivities follow from the chain rule on the linear model
// G = Ga + (δW + δT)·G_ondie, C = Ca + δL·C_gate,
// i = i_a·(1 + LeffSens·δL). The System's K = 3 variables are those
// principal components. A diagonal covariance diag(kW², kT², kL²)
// reproduces the independent three-variable model.
func BuildCorrelated(nl *netlist.Netlist, cov [][]float64) (*System, error) {
	sys, err := nominal(nl, 3)
	if err != nil {
		return nil, err
	}
	if len(cov) != 3 {
		return nil, fmt.Errorf("mna: covariance must be 3x3 (W, T, Leff), got %d rows", len(cov))
	}
	pca, err := randvar.NewPCA(make([]float64, 3), cov)
	if err != nil {
		return nil, fmt.Errorf("mna: covariance decomposition: %w", err)
	}
	n := sys.N
	gd := sparse.NewTriplet(n, n, 4*len(nl.Resistors)+len(nl.Pads))
	cg := sparse.NewTriplet(n, n, 4*len(nl.Caps))
	for _, r := range nl.Resistors {
		if r.OnDie {
			stamp(gd, r.A, r.B, 1/r.Ohms)
		}
	}
	for _, c := range nl.Caps {
		if c.GateFrac > 0 {
			stamp(cg, c.A, c.B, c.Farads*c.GateFrac)
		}
	}
	padRel := make([]float64, n) // ∂(pad injection)/∂(relative conductance)
	for _, p := range nl.Pads {
		if p.OnDie {
			g := 1 / p.Rpin
			gd.Add(p.Node, p.Node, g)
			padRel[p.Node] += g * p.VDD
		}
	}
	gOnDie, cGate := gd.Compile(), cg.Compile()
	// Chain rule through δ = V·√Λ·z: the k-th principal direction
	// carries sensitivity √λ_k·(V_Wk + V_Tk) to on-die conductance and
	// √λ_k·V_Lk to gate capacitance and drain currents.
	for k := 0; k < 3; k++ {
		sl := sqrtNonneg(pca.Lambda[k])
		gs := sl * (pca.Vecs[k][0] + pca.Vecs[k][1])
		ls := sl * pca.Vecs[k][2]
		if gs != 0 && gOnDie.NNZ() > 0 {
			sys.GSens[k] = gOnDie.Clone().Scale(gs)
		}
		if ls != 0 && cGate.NNZ() > 0 {
			sys.CSens[k] = cGate.Clone().Scale(ls)
		}
		pad := make([]float64, n)
		for i, v := range padRel {
			pad[i] = v * gs
		}
		sys.padSens[k] = pad
		sys.srcSens[k] = sys.uniformWeights(ls)
	}
	return sys, nil
}

func sqrtNonneg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

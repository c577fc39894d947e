package mna

import (
	"math"

	"opera/internal/netlist"
)

// ThreeVarSpec holds separate first-order sensitivities for the width
// and thickness variables — the paper's Eq. 13 form *before* the Eq. 14
// reduction that combines them into the single geometry variable ξG.
// Keeping W and T separate costs a larger chaos basis (three dimensions
// instead of two); the paper's observation is that for a linear model
// with G ∝ W·T/ρ the perturbation matrices satisfy Gb = d·Ga and
// Gc = e·Ga, so d·ξW + e·ξT collapses into √(d²+e²)·ξG exactly.
type ThreeVarSpec struct {
	// KW and KT are the relative conductance changes of on-die metal
	// per unit of ξW and ξT.
	KW, KT float64
	// KCL and KIL are as in VariationSpec.
	KCL, KIL float64
}

// DefaultThreeVarSpec reproduces the paper's Table 1 setup in separated
// form: 3σ of 20% in W and 15% in T (which combine to 25% in ξG), 20%
// in Leff.
func DefaultThreeVarSpec() ThreeVarSpec {
	return ThreeVarSpec{
		KW:  0.20 / 3,
		KT:  0.15 / 3,
		KCL: 0.20 / 3,
		KIL: 0.20 / 3,
	}
}

// Combine returns the equivalent two-variable spec of Eq. 14:
// KG = √(KW² + KT²) (the scaled sum of independent unit-variance
// Gaussians is Gaussian with the root-sum-square sensitivity).
func (s ThreeVarSpec) Combine() VariationSpec {
	return VariationSpec{
		KG:  math.Sqrt(s.KW*s.KW + s.KT*s.KT),
		KCL: s.KCL,
		KIL: s.KIL,
	}
}

// Dimension indices of the three-variable model built by
// BuildThreeVar.
const (
	Dim3W = 0
	Dim3T = 1
	Dim3L = 2
	Dims3 = 3
)

// BuildThreeVar stamps the netlist in the separated Eq. 13 form over
// (ξW, ξT, ξL).
func BuildThreeVar(nl *netlist.Netlist, spec ThreeVarSpec) (*System, error) {
	return buildInterDie(nl, []float64{spec.KW, spec.KT}, spec.KCL, spec.KIL)
}

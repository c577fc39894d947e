package core

import (
	"fmt"

	"opera/internal/galerkin"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/pce"
)

// AnalyzeThreeVar runs OPERA with the separated (ξW, ξT, ξL) model of
// the paper's Eq. 13. For the linear conductance model its moments
// equal AnalyzeNetlist's with the combined spec (Eq. 14), at the cost
// of a three-dimensional basis; use it when the W and T sensitivities
// do not share a pattern and cannot be combined.
func AnalyzeThreeVar(nl *netlist.Netlist, spec mna.ThreeVarSpec, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Families != nil {
		return nil, fmt.Errorf("core: AnalyzeThreeVar manages its own basis families")
	}
	sys, err := mna.BuildThreeVar(nl, spec)
	if err != nil {
		return nil, err
	}
	basis := pce.NewHermiteBasis(mna.Dims3, opts.Order)
	gsys, err := galerkin.FromThreeVar(sys, basis)
	if err != nil {
		return nil, err
	}
	return analyze(gsys, sys.VDD, opts)
}

// AnalyzeCorrelated runs OPERA under a full 3×3 covariance of the
// relative W/T/Leff variations, decorrelated internally by PCA (the
// paper's §5 route for correlated parameters).
func AnalyzeCorrelated(nl *netlist.Netlist, cov [][]float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Families != nil {
		return nil, fmt.Errorf("core: AnalyzeCorrelated manages its own basis families")
	}
	sys, err := mna.BuildCorrelated(nl, cov)
	if err != nil {
		return nil, err
	}
	basis := pce.NewHermiteBasis(sys.Dims, opts.Order)
	gsys, err := galerkin.FromCorrelated(sys, basis)
	if err != nil {
		return nil, err
	}
	return analyze(gsys, sys.VDD, opts)
}

// AnalyzeSpatial runs OPERA under the intra-die spatial variation model
// (per-region fields with exponential correlation, reduced to principal
// components — the within-die case the paper's §3 defers to future
// work). Many retained principal components make the basis large; the
// coupled solve's CG factors only the scalar mean companion, and its
// block factorization, which grows as (basis size)³, serves a long
// window only when it is cheaper and fits 4 GiB.
func AnalyzeSpatial(nl *netlist.Netlist, spec mna.SpatialSpec, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Families != nil {
		return nil, fmt.Errorf("core: AnalyzeSpatial manages its own basis families")
	}
	sys, err := mna.BuildSpatial(nl, spec)
	if err != nil {
		return nil, err
	}
	basis := pce.NewHermiteBasis(sys.Dims, opts.Order)
	gsys, err := galerkin.FromSpatial(sys, basis)
	if err != nil {
		return nil, err
	}
	return analyze(gsys, sys.VDD, opts)
}

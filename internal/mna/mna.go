// Package mna stamps a power grid netlist into the modified nodal
// analysis matrices of the paper's linear variation model (Eq. 12–14).
// Every model is one System over K independent standard variables z:
//
//	G(z) = Ga + Σ_k z_k·G_k,  C(z) = Ca + Σ_k z_k·C_k,
//	u(t, z) = ua(t) + Σ_k z_k·u_k(t).
//
// Four builders fill it: Build (ξG, ξL after the Eq. 14 reduction),
// BuildThreeVar (ξW, ξT, ξL of Eq. 13), BuildCorrelated (the principal
// variables of a correlated W/T/Leff covariance) and BuildSpatial (the
// principal components of an intra-die field). Only the builders
// differ; the Galerkin lift, Monte Carlo and the nominal run take any
// System. Supply pads are Norton-transformed (conductance stamp plus an
// equivalent current injection), which keeps the system matrix
// symmetric positive definite and produces the pad part of u_k
// naturally from on-die pad conductance.
package mna

import (
	"fmt"

	"opera/internal/netlist"
	"opera/internal/sparse"
)

// VariationSpec holds the first-order sensitivities of the linear
// variation model. The ξ variables are normalized to unit variance, so
// a sensitivity is the relative change per standard deviation of the
// underlying parameter.
//
// The paper's experimental setup (Table 1) uses maximum 3σ variations
// of 20% in W and 15% in T, combining to 25% in the single geometry
// variable ξG (Eq. 14), and 20% in Leff, with 40% of the grid
// capacitance tracking Leff. Those settings correspond to
// KG = 0.25/3, KCL = KIL = 0.20/3, with each capacitor's GateFrac
// (0.4 grid-wide in the paper) applied at stamping — see DefaultSpec.
type VariationSpec struct {
	// KG is the relative conductance change of on-die metal per unit
	// of ξG: G = Ga·(1 + KG·ξG).
	KG float64
	// KCL is the relative change of the gate-capacitance portion per
	// unit of ξL, already including the gate fraction when applied to a
	// capacitor with GateFrac = 1. Stamping multiplies by each
	// capacitor's GateFrac: C = Ca·(1 + GateFrac·KCL·ξL).
	KCL float64
	// KIL is the relative drain-current change per unit of ξL,
	// multiplied by each source's LeffSens: i = ia·(1 + LeffSens·KIL·ξL).
	KIL float64
}

// DefaultSpec reproduces the paper's Table 1 setup: 3σ bounds of 25% on
// ξG (from 20% W and 15% T), 20% on Leff with 40% of C affected, and a
// linear drain-current dependence on Leff.
func DefaultSpec() VariationSpec {
	return VariationSpec{
		KG:  0.25 / 3,
		KCL: 0.20 / 3,
		KIL: 0.20 / 3,
	}
}

// System is the stamped stochastic MNA description over K independent
// standard variables.
type System struct {
	N  int
	Ga *sparse.Matrix // nominal conductance (pads Norton-stamped)
	Ca *sparse.Matrix // nominal capacitance
	// GSens[k] = ∂G/∂z_k and CSens[k] = ∂C/∂z_k (length K each); a
	// sensitivity the builder stamped nothing into is nil.
	GSens, CSens []*sparse.Matrix

	VDD float64 // supply voltage (max over pads; for drop reporting)

	netlist *netlist.Netlist
	padBase []float64   // Σ gpin·VDD per node
	padSens [][]float64 // padSens[k]: static pad part of u_k (nil: none)
	srcSens [][]float64 // srcSens[k][j]: source j's current weight in u_k (nil: none)
}

// Random-dimension indices of the two-variable model built by Build.
const (
	DimG = 0
	DimL = 1
	Dims = 2
)

// Dims returns K, the number of random variables.
func (s *System) Dims() int { return len(s.GSens) }

// SourceDriven reports whether u_k carries current-source terms and so
// follows the load waveforms; otherwise u_k is the static pad part
// alone.
func (s *System) SourceDriven(k int) bool { return s.srcSens[k] != nil }

// stamp adds a two-terminal element of value v between nodes a and b.
func stamp(t *sparse.Triplet, a, b int, v float64) {
	if a != netlist.Ground {
		t.Add(a, a, v)
	}
	if b != netlist.Ground {
		t.Add(b, b, v)
	}
	if a != netlist.Ground && b != netlist.Ground {
		t.Add(a, b, -v)
		t.Add(b, a, -v)
	}
}

// nominal validates the netlist and stamps what every model shares: Ga,
// Ca, the pads' Norton injections and VDD. The returned System has K
// empty sensitivity slots for the builder to fill.
func nominal(nl *netlist.Netlist, k int) (*System, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	n := nl.NumNodes
	ga := sparse.NewTriplet(n, n, 4*len(nl.Resistors)+len(nl.Pads))
	ca := sparse.NewTriplet(n, n, 4*len(nl.Caps))
	for _, r := range nl.Resistors {
		stamp(ga, r.A, r.B, 1/r.Ohms)
	}
	for _, c := range nl.Caps {
		stamp(ca, c.A, c.B, c.Farads)
	}
	sys := &System{
		N:       n,
		GSens:   make([]*sparse.Matrix, k),
		CSens:   make([]*sparse.Matrix, k),
		netlist: nl,
		padBase: make([]float64, n),
		padSens: make([][]float64, k),
		srcSens: make([][]float64, k),
	}
	for _, p := range nl.Pads {
		g := 1 / p.Rpin
		ga.Add(p.Node, p.Node, g)
		sys.padBase[p.Node] += g * p.VDD
		if p.VDD > sys.VDD {
			sys.VDD = p.VDD
		}
	}
	sys.Ga, sys.Ca = ga.Compile(), ca.Compile()
	return sys, nil
}

// compile returns the stamped sensitivity, or nil when nothing was
// stamped.
func compile(t *sparse.Triplet) *sparse.Matrix {
	if t.NNZ() == 0 {
		return nil
	}
	return t.Compile()
}

// uniformWeights gives every current source the same weight w.
func (s *System) uniformWeights(w float64) []float64 {
	ws := make([]float64, len(s.netlist.Sources))
	for j := range ws {
		ws[j] = w
	}
	return ws
}

// Build stamps the netlist under the two-variable spec: dimension DimG
// is ξG (geometry: W, T combined), DimL is ξL (Leff).
func Build(nl *netlist.Netlist, spec VariationSpec) (*System, error) {
	return buildInterDie(nl, []float64{spec.KG}, spec.KCL, spec.KIL)
}

// buildInterDie stamps the inter-die model: one geometry dimension per
// entry of kg, each scaling all on-die metal and pads, then one Leff
// dimension scaling gate capacitance by kcl and drain currents by kil.
func buildInterDie(nl *netlist.Netlist, kg []float64, kcl, kil float64) (*System, error) {
	sys, err := nominal(nl, len(kg)+1)
	if err != nil {
		return nil, err
	}
	n := sys.N
	geo := make([]*sparse.Triplet, len(kg))
	for d := range geo {
		geo[d] = sparse.NewTriplet(n, n, 4*len(nl.Resistors)+len(nl.Pads))
	}
	for _, r := range nl.Resistors {
		if r.OnDie {
			g := 1 / r.Ohms
			for d, k := range kg {
				stamp(geo[d], r.A, r.B, g*k)
			}
		}
	}
	for d, k := range kg {
		pad := make([]float64, n)
		for _, p := range nl.Pads {
			if p.OnDie {
				g := 1 / p.Rpin
				geo[d].Add(p.Node, p.Node, g*k)
				pad[p.Node] += g * p.VDD * k
			}
		}
		sys.GSens[d] = compile(geo[d])
		sys.padSens[d] = pad
	}
	leff := len(kg)
	cc := sparse.NewTriplet(n, n, 4*len(nl.Caps))
	for _, c := range nl.Caps {
		if c.GateFrac > 0 {
			stamp(cc, c.A, c.B, c.Farads*c.GateFrac*kcl)
		}
	}
	sys.CSens[leff] = compile(cc)
	sys.srcSens[leff] = sys.uniformWeights(kil)
	return sys, nil
}

// RHS fills the excitation at time t: ua, the nominal part, and uk[k],
// the coefficient u_k of z_k. ua may be nil and uk nil, shorter than K
// or holding nil entries, to skip components. Current sources draw
// current (negative injection); pads inject.
func (s *System) RHS(t float64, ua []float64, uk [][]float64) {
	if ua != nil {
		if len(ua) != s.N {
			panic(fmt.Sprintf("mna: RHS ua length %d != %d", len(ua), s.N))
		}
		copy(ua, s.padBase)
	}
	if len(uk) > s.Dims() {
		panic(fmt.Sprintf("mna: RHS got %d sensitivities, the model has %d", len(uk), s.Dims()))
	}
	for k, u := range uk {
		if u == nil {
			continue
		}
		if len(u) != s.N {
			panic(fmt.Sprintf("mna: RHS u_%d length %d != %d", k, len(u), s.N))
		}
		if s.padSens[k] != nil {
			copy(u, s.padSens[k])
		} else {
			clear(u)
		}
	}
	for j, src := range s.netlist.Sources {
		i := src.Wave.At(t)
		if ua != nil {
			ua[src.A] -= i
		}
		if src.LeffSens == 0 {
			continue
		}
		for k, u := range uk {
			if u != nil && s.srcSens[k] != nil {
				u[src.A] -= i * src.LeffSens * s.srcSens[k][j]
			}
		}
	}
}

// Realize returns the deterministic matrices and RHS closure for one
// realization z (length K) of the variation variables, through a fresh
// Plan. The returned matrices share no storage with the nominal ones.
// A caller realizing many z builds the Plan and an Excitation once
// instead, as the Monte Carlo baseline does; both give these values
// bit for bit.
func (s *System) Realize(z []float64) (g, c *sparse.Matrix, rhs func(t float64, u []float64)) {
	if len(z) != s.Dims() {
		panic(fmt.Sprintf("mna: Realize needs %d variables, got %d", s.Dims(), len(z)))
	}
	p := s.Plan()
	g, c = p.Matrices()
	p.Fill(z, g, c)
	z = append([]float64(nil), z...) // rhs outlives the caller's draw buffer
	n := s.N
	row := make([]float64, (len(z)+1)*n)
	uk := make([][]float64, len(z))
	for k := range uk {
		uk[k] = row[(k+1)*n : (k+2)*n]
	}
	rhs = func(t float64, u []float64) {
		s.RHS(t, row[:n], uk)
		superpose(u, row, z)
	}
	return g, c, rhs
}

// UnionPattern returns a matrix holding the union sparsity pattern of
// Ga, Ca and every sensitivity (values are sums; only the pattern
// matters). A Cholesky symbolic analysis on this pattern serves every
// Monte Carlo realization and every time-step matrix G + C/h.
func (s *System) UnionPattern() *sparse.Matrix {
	u := s.Ga
	for _, m := range s.GSens {
		if m != nil {
			u = sparse.Add(1, u, 1, m)
		}
	}
	u = sparse.Add(1, u, 1, s.Ca)
	for _, m := range s.CSens {
		if m != nil {
			u = sparse.Add(1, u, 1, m)
		}
	}
	return u
}

package core

import (
	"fmt"
	"time"

	"opera/internal/galerkin"
	"opera/internal/mna"
	"opera/internal/mor"
	"opera/internal/order"
	"opera/internal/pce"
	"opera/internal/poly"
	"opera/internal/sparse"
)

// ReducedResult carries the port-level stochastic moments of a
// MOR-accelerated analysis.
type ReducedResult struct {
	Ports []int
	K     int // reduced state dimension
	Steps int
	VDD   float64
	// Mean[s][j], Variance[s][j] for port j at step s.
	Mean, Variance [][]float64
	ReduceTime     time.Duration
	SolveTime      time.Duration
}

// AnalyzeReduced implements the paper's §5.2 complexity reduction:
// "MOR techniques can be used as the power grid node voltages in the
// top layers and their moments w.r.t ξ are typically of no interest to
// the designer." The nominal grid (Ga, Ca) is reduced onto a block
// Krylov subspace about the ports of interest (PRIMA congruence, see
// package mor), every variation matrix and excitation component is
// projected onto the same subspace, and the stochastic Galerkin
// transient runs on the reduced model — for tens of states instead of
// tens of thousands of nodes. The congruence preserves definiteness, so
// the reduced Galerkin system factors with the same block Cholesky.
//
// morMoments block moments are matched about the reduction's automatic
// expansion point; accuracy at the ports improves rapidly with it (see
// package mor's tests).
func AnalyzeReduced(sys *mna.System, ports []int, morMoments int, opts Options) (*ReducedResult, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("core: AnalyzeReduced needs at least one port")
	}
	startReduce := time.Now()
	// The grid is driven by distributed sources (pads and block
	// currents), not by the observation ports; snapshot the excitation's
	// spatial patterns across the window and add them to the Krylov
	// inputs so the reduced model is driven correctly.
	inputs := excitationSnapshots(sys, opts, 8)
	red, err := mor.Reduce(sys.Ga, sys.Ca, mor.Options{
		Ports: ports, Inputs: inputs, Moments: morMoments,
	})
	if err != nil {
		return nil, fmt.Errorf("core: reduction: %w", err)
	}
	k := red.K
	// Project every operator matrix onto V.
	gar := projectSparse(sys.Ga, red.V)
	ggr := projectSparse(sys.Gg, red.V)
	car := projectSparse(sys.Ca, red.V)
	ccr := projectSparse(sys.Cc, red.V)

	fams := opts.Families
	if fams == nil {
		fams = []poly.Family{poly.Hermite{}, poly.Hermite{}}
	}
	basis := pce.NewBasis(fams, opts.Order)
	ident := basis.CouplingIdentity()
	gTerms := []galerkin.Term{{Coupling: ident, A: gar}}
	if sys.Gg.NNZ() > 0 {
		gTerms = append(gTerms, galerkin.Term{Coupling: basis.CouplingLinear(mna.DimG), A: ggr})
	}
	cTerms := []galerkin.Term{{Coupling: ident, A: car}}
	if sys.Cc.NNZ() > 0 {
		cTerms = append(cTerms, galerkin.Term{Coupling: basis.CouplingLinear(mna.DimL), A: ccr})
	}
	pg := basis.ProjectVariable(mna.DimG)
	pl := basis.ProjectVariable(mna.DimL)
	n := sys.N
	ua := make([]float64, n)
	ug := make([]float64, n)
	uc := make([]float64, n)
	uaR := make([]float64, k)
	ugR := make([]float64, k)
	ucR := make([]float64, k)
	rhs := func(t float64, out [][]float64) {
		sys.RHS(t, ua, ug, uc)
		projectVec(red.V, ua, uaR)
		projectVec(red.V, ug, ugR)
		projectVec(red.V, uc, ucR)
		for m := range out {
			dst := out[m]
			cgm, clm := pg[m], pl[m]
			for i := 0; i < k; i++ {
				v := cgm*ugR[i] + clm*ucR[i]
				if m == 0 {
					v += uaR[i]
				}
				dst[i] = v
			}
		}
	}
	gsys := &galerkin.System{N: k, Basis: basis, GTerms: gTerms, CTerms: cTerms, RHS: rhs}
	reduceTime := time.Since(startReduce)

	nsteps := opts.Steps + 1
	out := &ReducedResult{
		Ports: append([]int(nil), ports...),
		K:     k, Steps: opts.Steps, VDD: sys.VDD,
		Mean:       alloc2(nsteps, len(ports)),
		Variance:   alloc2(nsteps, len(ports)),
		ReduceTime: reduceTime,
	}
	// Port recovery: voltage_p = Σ_k V[k][p]·z_k per chaos coefficient.
	vp := make([][]float64, len(ports)) // vp[j][k] = V[k][ports[j]]
	for j, p := range ports {
		vp[j] = make([]float64, k)
		for kk := 0; kk < k; kk++ {
			vp[j][kk] = red.V[kk][p]
		}
	}
	startSolve := time.Now()
	_, err = galerkin.Solve(gsys, galerkin.Options{
		Step: opts.Step, Steps: opts.Steps,
		Ordering: order.MethodNatural, // the reduced system is dense and tiny
		Workers:  1,                   // fan-out overhead dwarfs the k×k solves
	}, func(step int, _ float64, coeffs [][]float64) {
		B := len(coeffs)
		for j := range ports {
			mean := 0.0
			for kk := 0; kk < k; kk++ {
				mean += vp[j][kk] * coeffs[0][kk]
			}
			out.Mean[step][j] = mean
			variance := 0.0
			for m := 1; m < B; m++ {
				cm := 0.0
				for kk := 0; kk < k; kk++ {
					cm += vp[j][kk] * coeffs[m][kk]
				}
				variance += cm * cm
			}
			out.Variance[step][j] = variance
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: reduced Galerkin solve: %w", err)
	}
	out.SolveTime = time.Since(startSolve)
	return out, nil
}

// excitationSnapshots samples ua/ug/uc over the transient window at
// count evenly spaced times, returning the distinct spatial patterns.
func excitationSnapshots(sys *mna.System, opts Options, count int) [][]float64 {
	n := sys.N
	var out [][]float64
	ua := make([]float64, n)
	ug := make([]float64, n)
	uc := make([]float64, n)
	for k := 0; k < count; k++ {
		t := float64(k) * opts.Step * float64(opts.Steps) / float64(count-1)
		sys.RHS(t, ua, ug, uc)
		out = append(out, append([]float64(nil), ua...))
		out = append(out, append([]float64(nil), uc...))
		if k == 0 {
			// The pad-sensitivity pattern ug is time-invariant.
			out = append(out, append([]float64(nil), ug...))
		}
	}
	return out
}

// projectSparse computes Vᵀ·A·V as a (dense-pattern) sparse matrix.
func projectSparse(a *sparse.Matrix, v [][]float64) *sparse.Matrix {
	k := len(v)
	n := a.Rows
	av := make([][]float64, k)
	tmp := make([]float64, n)
	for j := 0; j < k; j++ {
		a.MulVec(tmp, v[j])
		av[j] = append([]float64(nil), tmp...)
	}
	d := make([][]float64, k)
	for i := 0; i < k; i++ {
		d[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			s := 0.0
			for l := 0; l < n; l++ {
				s += v[i][l] * av[j][l]
			}
			d[i][j] = s
		}
	}
	// Symmetrize to erase roundoff asymmetry before factorization.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			m := 0.5 * (d[i][j] + d[j][i])
			d[i][j], d[j][i] = m, m
		}
	}
	return sparse.FromDense(d)
}

// projectVec computes out = Vᵀ·x.
func projectVec(v [][]float64, x, out []float64) {
	for j := range v {
		s := 0.0
		col := v[j]
		for i := range col {
			s += col[i] * x[i]
		}
		out[j] = s
	}
}

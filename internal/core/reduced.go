package core

import (
	"fmt"
	"time"

	"opera/internal/galerkin"
	"opera/internal/mna"
	"opera/internal/mor"
	"opera/internal/order"
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
// the reduced Galerkin system takes the same SPD solvers: CG and, for
// a long window, the supernodal Cholesky of its block companion.
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
	basis, err := chaosBasis(sys, opts)
	if err != nil {
		return nil, err
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
	// Project every operator matrix and excitation component onto V and
	// lift the reduced model as galerkin.From lifts the full one.
	ident := basis.CouplingIdentity()
	gTerms := []galerkin.Term{{Coupling: ident, A: projectSparse(sys.Ga, red.V)}}
	cTerms := []galerkin.Term{{Coupling: ident, A: projectSparse(sys.Ca, red.V)}}
	for d := 0; d < sys.Dims(); d++ {
		if g := sys.GSens[d]; g != nil && g.NNZ() > 0 {
			gTerms = append(gTerms, galerkin.Term{Coupling: basis.CouplingLinear(d), A: projectSparse(g, red.V)})
		}
		if c := sys.CSens[d]; c != nil && c.NNZ() > 0 {
			cTerms = append(cTerms, galerkin.Term{Coupling: basis.CouplingLinear(d), A: projectSparse(c, red.V)})
		}
	}
	ua := make([]float64, sys.N)
	uk := alloc2(sys.Dims(), sys.N)
	sources, weights := galerkin.LinearExcitation(basis, k, func(t float64, uaR []float64, ukR [][]float64) {
		sys.RHS(t, ua, uk)
		projectVec(red.V, ua, uaR)
		for d := range uk {
			projectVec(red.V, uk[d], ukR[d])
		}
	})
	gsys := &galerkin.System{N: k, Basis: basis, GTerms: gTerms, CTerms: cTerms, Sources: sources, Weights: weights}
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

// excitationSnapshots samples the excitation over the transient window
// at count evenly spaced times, returning its spatial patterns: ua and
// every source-driven u_k at each time, and each static pad-only u_k
// once, after the first time's.
func excitationSnapshots(sys *mna.System, opts Options, count int) [][]float64 {
	var out [][]float64
	ua := make([]float64, sys.N)
	uk := alloc2(sys.Dims(), sys.N)
	for j := 0; j < count; j++ {
		t := float64(j) * opts.Step * float64(opts.Steps) / float64(count-1)
		sys.RHS(t, ua, uk)
		out = append(out, append([]float64(nil), ua...))
		for d, u := range uk {
			if sys.SourceDriven(d) {
				out = append(out, append([]float64(nil), u...))
			}
		}
		if j == 0 {
			for d, u := range uk {
				if !sys.SourceDriven(d) {
					out = append(out, append([]float64(nil), u...))
				}
			}
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

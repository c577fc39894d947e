package mna

import (
	"fmt"
	"math"

	"opera/internal/netlist"
	"opera/internal/randvar"
	"opera/internal/sparse"
)

// SpatialSpec describes *intra-die* (within-die) process variation — the
// case the paper's §3 defers: "We consider only the inter-die variations
// in this work… [intra-die parameters] vary randomly and spatially
// across a die". The die is partitioned into regions (the netlist's
// element Region tags); each region carries its own geometry and Leff
// variables, correlated across regions by an exponential spatial kernel
// exp(−d/CorrLength). Principal component analysis turns the correlated
// region field into a small number of independent chaos dimensions —
// precisely the discretized Karhunen–Loève construction the
// stochastic-finite-element literature the paper builds on uses for
// spatial processes.
type SpatialSpec struct {
	// RegionsPerAxis partitions the die into R×R regions; element
	// Region tags must lie in [0, R²).
	RegionsPerAxis int
	// KG is the per-region relative conductance standard deviation
	// (the ξG magnitude of a single region).
	KG float64
	// KCL and KIL are the per-region Leff sensitivities for gate
	// capacitance and drain currents.
	KCL, KIL float64
	// CorrLength is the spatial correlation length in units of region
	// pitch; 0 means independent regions, large values approach the
	// paper's fully correlated inter-die case.
	CorrLength float64
	// EnergyCutoff truncates the principal components once their
	// cumulative eigenvalue share reaches this fraction (default 0.99);
	// MaxDims caps the count outright (0 = no cap).
	EnergyCutoff float64
	MaxDims      int
}

// Validate checks the spec.
func (s SpatialSpec) Validate() error {
	if s.RegionsPerAxis < 1 {
		return fmt.Errorf("mna: spatial spec needs >= 1 region per axis, got %d", s.RegionsPerAxis)
	}
	if s.KG < 0 || s.KCL < 0 || s.KIL < 0 {
		return fmt.Errorf("mna: negative spatial sensitivities")
	}
	if s.CorrLength < 0 {
		return fmt.Errorf("mna: negative correlation length %g", s.CorrLength)
	}
	if s.EnergyCutoff < 0 || s.EnergyCutoff > 1 {
		return fmt.Errorf("mna: energy cutoff %g outside [0,1]", s.EnergyCutoff)
	}
	return nil
}

// BuildSpatial stamps the netlist under the intra-die spatial model.
// The System's K variables are the independent principal components of
// the geometry field, z_0..z_{D−1}, followed by those of the Leff field,
// z_D..z_{2D−1}, where D is the truncated component count. Every on-die
// resistor, gate capacitor and Leff-sensitive current source must carry
// a Region tag in range (the generator's grids do); a source with a
// negative Region is unassigned and does not vary. Pads attach to the
// region of their node via the resistive stamps and are treated as
// region-free (package metal), except that their on-die effective
// conductance follows the mean field, i.e. remains deterministic here
// for simplicity.
func BuildSpatial(nl *netlist.Netlist, spec SpatialSpec) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nreg := spec.RegionsPerAxis * spec.RegionsPerAxis
	// Spatial covariance over the region grid and its PCA.
	cov := spatialCovariance(spec.RegionsPerAxis, spec.CorrLength)
	pca, err := randvar.NewPCA(make([]float64, nreg), cov)
	if err != nil {
		return nil, fmt.Errorf("mna: spatial covariance: %w", err)
	}
	cut := spec.EnergyCutoff
	if cut == 0 {
		cut = 0.99
	}
	dims := truncateDims(pca.Lambda, cut, spec.MaxDims)
	sys, err := nominal(nl, 2*dims)
	if err != nil {
		return nil, err
	}
	n := sys.N
	// Per-region sensitivity stamps.
	gReg := make([]*sparse.Triplet, nreg)
	cReg := make([]*sparse.Triplet, nreg)
	for r := 0; r < nreg; r++ {
		gReg[r] = sparse.NewTriplet(n, n, 16)
		cReg[r] = sparse.NewTriplet(n, n, 16)
	}
	for _, r := range nl.Resistors {
		if r.OnDie {
			if r.Region < 0 || r.Region >= nreg {
				return nil, fmt.Errorf("mna: resistor %q region %d outside [0,%d)", r.Name, r.Region, nreg)
			}
			stamp(gReg[r.Region], r.A, r.B, 1/r.Ohms)
		}
	}
	for _, c := range nl.Caps {
		if c.GateFrac > 0 {
			if c.Region < 0 || c.Region >= nreg {
				return nil, fmt.Errorf("mna: capacitor %q region %d outside [0,%d)", c.Name, c.Region, nreg)
			}
			stamp(cReg[c.Region], c.A, c.B, c.Farads*c.GateFrac)
		}
	}
	for _, src := range nl.Sources {
		if src.LeffSens != 0 && src.Region >= nreg {
			return nil, fmt.Errorf("mna: current source %q region %d outside [0,%d)", src.Name, src.Region, nreg)
		}
	}
	// Per-principal-dimension weights w_k[r] = √λ_k·V[k][r].
	weight := func(k, r int) float64 {
		return math.Sqrt(pca.Lambda[k]) * pca.Vecs[k][r]
	}
	gRegM := make([]*sparse.Matrix, nreg)
	cRegM := make([]*sparse.Matrix, nreg)
	for r := 0; r < nreg; r++ {
		gRegM[r] = gReg[r].Compile()
		cRegM[r] = cReg[r].Compile()
	}
	for k := 0; k < dims; k++ {
		// Geometry dim k: conductance field.
		acc := sparse.NewMatrix(n, n)
		for r := 0; r < nreg; r++ {
			w := spec.KG * weight(k, r)
			if w != 0 && gRegM[r].NNZ() > 0 {
				acc = sparse.Add(1, acc, w, gRegM[r])
			}
		}
		if acc.NNZ() > 0 {
			sys.GSens[k] = acc
		}
		// Leff dim (offset by dims): gate capacitance + currents.
		accC := sparse.NewMatrix(n, n)
		for r := 0; r < nreg; r++ {
			w := spec.KCL * weight(k, r)
			if w != 0 && cRegM[r].NNZ() > 0 {
				accC = sparse.Add(1, accC, w, cRegM[r])
			}
		}
		if accC.NNZ() > 0 {
			sys.CSens[dims+k] = accC
		}
		is := make([]float64, len(nl.Sources))
		for j, src := range nl.Sources {
			if src.LeffSens != 0 && src.Region >= 0 {
				is[j] = spec.KIL * weight(k, src.Region)
			}
		}
		sys.srcSens[dims+k] = is
	}
	return sys, nil
}

// spatialCovariance builds the unit-variance exponential kernel over an
// R×R region grid: Cov[r][s] = exp(−dist(r,s)/L); L = 0 is the identity.
func spatialCovariance(rPerAxis int, corrLength float64) [][]float64 {
	nreg := rPerAxis * rPerAxis
	cov := make([][]float64, nreg)
	for i := range cov {
		cov[i] = make([]float64, nreg)
	}
	for a := 0; a < nreg; a++ {
		ax, ay := a%rPerAxis, a/rPerAxis
		for b := 0; b < nreg; b++ {
			bx, by := b%rPerAxis, b/rPerAxis
			d := math.Hypot(float64(ax-bx), float64(ay-by))
			switch {
			case a == b:
				cov[a][b] = 1
			case corrLength <= 0:
				cov[a][b] = 0
			default:
				cov[a][b] = math.Exp(-d / corrLength)
			}
		}
	}
	return cov
}

// truncateDims returns the number of leading eigenvalues reaching the
// energy cutoff, subject to the cap.
func truncateDims(lambda []float64, cutoff float64, maxDims int) int {
	total := 0.0
	for _, l := range lambda {
		if l > 0 {
			total += l
		}
	}
	if total == 0 {
		return 1
	}
	acc := 0.0
	dims := 0
	for _, l := range lambda {
		if l <= 0 {
			break
		}
		acc += l
		dims++
		if acc/total >= cutoff {
			break
		}
	}
	if maxDims > 0 && dims > maxDims {
		dims = maxDims
	}
	if dims == 0 {
		dims = 1
	}
	return dims
}

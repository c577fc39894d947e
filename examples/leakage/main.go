// Leakage special case — the paper's §5.1: only the drain/leakage
// currents are stochastic (lognormal per intra-die region under
// threshold-voltage variation), so the Galerkin system decouples into
// N+1 independent solves sharing a single factorization (Eq. 27).
// Unlike the Ferzli–Najm bound-based approach §5.1 contrasts with,
// OPERA computes the mean, the variance and higher moments exactly
// from the expansion.
//
//	go run ./examples/leakage
package main

import (
	"fmt"
	"log"
	"math"

	"opera/internal/core"
	"opera/internal/grid"
)

func main() {
	spec := grid.DefaultSpec(4000, 77)
	spec.Regions = 2 // 2×2 = 4 intra-die regions
	nl, err := grid.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.LeakageOptions{
		Regions:   spec.NumRegions(),
		SigmaLogI: 0.7, // sigma of ln(I_leak): leakage swings ~2x per sigma
		Order:     3,
		Step:      1e-10,
		Steps:     20,
	}
	res, err := core.AnalyzeLeakage(nl, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %s, %d regions\n", nl.Stats(), opts.Regions)
	fmt.Printf("OPERA took the decoupled path: %v (factored a %d-unknown system once,\n"+
		"then ran one recursion per region plus the mean, %d in all, for the\n"+
		"%d chaos coefficients of Eq. 27)\n",
		res.Galerkin.Decoupled, res.Galerkin.AugmentedN, opts.Regions+1, res.Basis.Size())
	fmt.Printf("analysis time: %.3fs\n\n", res.Elapsed.Seconds())

	node, step := res.MaxMeanDropNode()
	sd := math.Sqrt(res.Variance[step][node])
	fmt.Printf("worst node %d: mean drop %.3f%% VDD, sigma %.4g V\n",
		node, res.DropPercent(res.Mean[step][node]), sd)

	// Monte Carlo cross-check: lognormal leakage draws, fixed operator,
	// one shared factorization (the strongest baseline).
	mc, err := core.RunLeakageMC(nl, opts, 2000, 3)
	if err != nil {
		log.Fatal(err)
	}
	mcSD := math.Sqrt(mc.Variance[step][node])
	fmt.Printf("Monte Carlo (%d samples, %.3fs): sigma %.4g V (OPERA error %.2f%%)\n",
		mc.Samples, mc.Elapsed.Seconds(), mcSD, 100*math.Abs(sd-mcSD)/mcSD)
	fmt.Printf("speedup %.0fx\n", mc.Elapsed.Seconds()/res.Elapsed.Seconds())
}

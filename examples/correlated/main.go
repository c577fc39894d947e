// Correlated process variations — the paper's §5 remark made concrete:
// "if they were not [uncorrelated], given their covariance matrix, they
// can always be transformed into a set of uncorrelated random variables
// by an orthogonal transformation technique like principal component
// analysis". Interconnect width and thickness track each other in real
// processes (both follow the metal CMP/etch conditions); this example
// analyzes a grid under W/T correlation ρ and shows how the correlation
// inflates the voltage spread relative to the independent assumption.
//
//	go run ./examples/correlated
package main

import (
	"fmt"
	"log"
	"math"

	"opera/internal/core"
	"opera/internal/grid"
	"opera/internal/mna"
)

func main() {
	nl, err := grid.Build(grid.DefaultSpec(2000, 31))
	if err != nil {
		log.Fatal(err)
	}
	sW, sT, sL := 0.20/3, 0.15/3, 0.20/3
	opts := core.Options{Order: 2, Step: 1e-10, Steps: 20}

	fmt.Printf("grid: %s\n", nl.Stats())
	fmt.Println("worst-node σ under W/T correlation (order-2 expansion):")
	fmt.Println("rho     sigma (V)   vs independent")
	var sigma0 float64
	for _, rho := range []float64{0, 0.3, 0.6, 0.9} {
		cov := [][]float64{
			{sW * sW, rho * sW * sT, 0},
			{rho * sW * sT, sT * sT, 0},
			{0, 0, sL * sL},
		}
		sys, err := mna.BuildCorrelated(nl, cov)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Analyze(sys, opts)
		if err != nil {
			log.Fatal(err)
		}
		sd := res.MaxStd()
		if rho == 0 {
			sigma0 = sd
		}
		fmt.Printf("%.1f   %.5g     %+.1f%%\n", rho, sd, 100*(sd/sigma0-1))
	}

	// Cross-check ρ=0.6 against the analytically equivalent combined
	// model KG_eff = √(σW² + σT² + 2ρσWσT).
	rho := 0.6
	kgEff := math.Sqrt(sW*sW + sT*sT + 2*rho*sW*sT)
	comb, err := mna.Build(nl, mna.VariationSpec{KG: kgEff, KCL: sL, KIL: sL})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Analyze(comb, opts)
	if err != nil {
		log.Fatal(err)
	}
	node, step := res.MaxMeanDropNode()
	fmt.Printf("\nanalytic check at rho=0.6: equivalent combined-model sigma at worst node = %.5g V\n",
		math.Sqrt(res.Variance[step][node]))
	fmt.Println("(matches the PCA run — see TestCorrelatedMatchesEquivalentCombined)")
}

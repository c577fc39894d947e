// Askey-scheme generality — the paper's §4 point that the method is not
// tied to Gaussian variations: "for different probability distributions
// of the random variables, different orthonormal basis sets need to be
// identified". This example analyzes the same grid under (a) Gaussian
// variations with a Hermite basis and (b) uniformly-distributed
// variations with a Legendre basis, and verifies the Legendre run
// against a uniform-sampling Monte Carlo.
//
//	go run ./examples/askey
package main

import (
	"fmt"
	"log"
	"math"

	"opera/internal/core"
	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/order"
	"opera/internal/poly"
	"opera/internal/randvar"
	"opera/internal/sparse"
	"opera/internal/transient"
)

func main() {
	nl, err := grid.Build(grid.DefaultSpec(1500, 11))
	if err != nil {
		log.Fatal(err)
	}
	// For a fair distribution comparison both models share the same
	// parameter *variance*: a uniform variable on [-√3, √3] has unit
	// variance like the standard Gaussian, so the same sensitivities
	// apply to ξ scaled by √3 for Legendre (defined on [-1, 1]).
	spec := mna.DefaultSpec()
	gaussSys, err := mna.Build(nl, spec)
	if err != nil {
		log.Fatal(err)
	}
	uniSpec := spec
	uniSpec.KG *= math.Sqrt(3)
	uniSpec.KCL *= math.Sqrt(3)
	uniSpec.KIL *= math.Sqrt(3)
	uniSys, err := mna.Build(nl, uniSpec)
	if err != nil {
		log.Fatal(err)
	}

	opts := core.Options{Order: 2, Step: 1e-10, Steps: 20}
	gauss, err := core.Analyze(gaussSys, opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Families = []poly.Family{poly.Legendre{}, poly.Legendre{}}
	uni, err := core.Analyze(uniSys, opts)
	if err != nil {
		log.Fatal(err)
	}
	node, step := gauss.MaxMeanDropNode()
	fmt.Printf("grid: %s — worst node %d at step %d\n", nl.Stats(), node, step)
	fmt.Printf("Gaussian + Hermite:  mean %.6f V, sigma %.4g V\n",
		gauss.Mean[step][node], math.Sqrt(gauss.Variance[step][node]))
	fmt.Printf("Uniform  + Legendre: mean %.6f V, sigma %.4g V\n",
		uni.Mean[step][node], math.Sqrt(uni.Variance[step][node]))

	// Monte Carlo with uniform draws validates the Legendre expansion.
	const samples = 400
	rng := randvar.NewStream(5, 0)
	var acc randvar.Running
	pattern := uniSys.UnionPattern()
	comp := sparse.Add(1, pattern, 1/opts.Step, pattern)
	sym := factor.CholAnalyzeSupernodal(comp, order.Permute(opts.Ordering, comp), -1)
	// Each sample refills one G, C pair through the fill plan and
	// refactors one stepper in place; the excitation is tabulated once.
	plan := uniSys.Plan()
	exc := uniSys.Tabulate(opts.Step, opts.Steps)
	g, c := plan.Matrices()
	u := make([]float64, uniSys.N)
	var st *transient.Stepper
	for k := 0; k < samples; k++ {
		xiG := 2*rng.Float64() - 1
		xiL := 2*rng.Float64() - 1
		z := []float64{xiG, xiL}
		plan.Fill(z, g, c)
		if st == nil {
			st, err = transient.NewStepper(g, c, transient.Options{
				Step: opts.Step, Steps: opts.Steps, Symbolic: sym,
			})
		} else {
			err = st.Refactor()
		}
		if err != nil {
			log.Fatal(err)
		}
		exc.At(0, z, u)
		if err := st.InitDC(u); err != nil {
			log.Fatal(err)
		}
		for s := 1; s <= opts.Steps; s++ {
			exc.At(s, z, u)
			if err := st.Advance(u); err != nil {
				log.Fatal(err)
			}
			if s == step {
				acc.Push(st.State()[node])
			}
		}
	}
	fmt.Printf("Uniform Monte Carlo (%d samples): mean %.6f V, sigma %.4g V\n",
		samples, acc.Mean(), acc.Std())
	fmt.Printf("Legendre-OPERA sigma error vs MC: %.2f%%\n",
		100*math.Abs(math.Sqrt(uni.Variance[step][node])-acc.Std())/acc.Std())
}

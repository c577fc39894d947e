package transient

import (
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/obs"
	"opera/internal/sparse"
)

// singleRC builds the 1-node circuit: conductance g to ground, cap c to
// ground, so C·dv/dt + G·v = u(t).
func singleRC(g, c float64) (*sparse.Matrix, *sparse.Matrix) {
	return sparse.FromDense([][]float64{{g}}), sparse.FromDense([][]float64{{c}})
}

func TestBackwardEulerStepDecay(t *testing.T) {
	// v' = -v/(RC), v(0) = 1 (forced by DC with u(0) = g·1), u = 0
	// afterwards. Exact: v(t) = e^{-t/RC}. BE converges first order.
	gm, cm := singleRC(1, 1) // RC = 1
	prevErr := math.Inf(1)
	for _, h := range []float64{0.1, 0.05, 0.025} {
		steps := int(1/h + 0.5)
		var vEnd float64
		err := Run(gm, cm, func(tt float64, u []float64) {
			if tt == 0 {
				u[0] = 1 // DC init at v = 1
			} else {
				u[0] = 0
			}
		}, Options{Step: h, Steps: steps, Method: BackwardEuler}, func(step int, tt float64, x []float64) {
			vEnd = x[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-1)
		e := math.Abs(vEnd - want)
		if e >= prevErr {
			t.Errorf("h=%g: error %g did not decrease (prev %g)", h, e, prevErr)
		}
		if e > 2*h { // first-order accuracy bound (C ≈ e^{-1}/2)
			t.Errorf("h=%g: error %g too large", h, e)
		}
		prevErr = e
	}
}

func TestTrapezoidalSecondOrder(t *testing.T) {
	// Free decay from v(0) = 1 with u ≡ 0 (set via Init +
	// SetPrevExcitation so the input has no jump the method could
	// mis-handle); exact v(1) = e⁻¹.
	gm, cm := singleRC(1, 1)
	errs := make([]float64, 0, 3)
	for _, h := range []float64{0.1, 0.05, 0.025} {
		steps := int(1/h + 0.5)
		s, err := NewStepper(gm, cm, Options{Step: h, Steps: steps, Method: Trapezoidal})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Init([]float64{1}); err != nil {
			t.Fatal(err)
		}
		zero := []float64{0}
		if err := s.SetPrevExcitation(zero); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			if err := s.Advance(zero); err != nil {
				t.Fatal(err)
			}
		}
		errs = append(errs, math.Abs(s.State()[0]-math.Exp(-1)))
	}
	// Halving h should reduce error by ~4x for a second-order method.
	for i := 1; i < len(errs); i++ {
		ratio := errs[i-1] / errs[i]
		if ratio < 3 {
			t.Errorf("trapezoidal convergence ratio %g, want ≳ 4 (errors %v)", ratio, errs)
		}
	}
}

func TestStepResponseSteadyState(t *testing.T) {
	// Constant u: v must converge to u/g regardless of method.
	gm, cm := singleRC(2, 3)
	for _, m := range []Method{BackwardEuler, Trapezoidal} {
		var vEnd float64
		err := Run(gm, cm, func(tt float64, u []float64) { u[0] = 4 },
			Options{Step: 0.1, Steps: 400, Method: m},
			func(step int, tt float64, x []float64) { vEnd = x[0] })
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vEnd-2) > 1e-9 {
			t.Errorf("%v: steady state %g, want 2", m, vEnd)
		}
	}
}

// ladder builds an n-node RC ladder driven at node 0 through a pad
// conductance.
func ladder(n int) (*sparse.Matrix, *sparse.Matrix) {
	g := sparse.NewTriplet(n, n, 4*n)
	c := sparse.NewTriplet(n, n, n)
	g.Add(0, 0, 10) // pad
	for i := 0; i < n-1; i++ {
		g.Add(i, i, 1)
		g.Add(i+1, i+1, 1)
		g.Add(i, i+1, -1)
		g.Add(i+1, i, -1)
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, 0.1)
	}
	return g.Compile(), c.Compile()
}

func TestConservationAtDC(t *testing.T) {
	// With constant excitation the DC init is already the fixed point:
	// every step must stay there exactly (up to roundoff).
	g, c := ladder(20)
	u0 := make([]float64, 20)
	u0[0] = 10 * 1.2 // pad Norton injection
	var first, last []float64
	err := Run(g, c, func(tt float64, u []float64) { copy(u, u0) },
		Options{Step: 1e-2, Steps: 50, Method: BackwardEuler},
		func(step int, tt float64, x []float64) {
			if step == 0 {
				first = append([]float64(nil), x...)
			}
			last = append(last[:0], x...)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if math.Abs(first[i]-last[i]) > 1e-9 {
			t.Fatalf("node %d drifted from %g to %g under constant input", i, first[i], last[i])
		}
	}
}

func TestMethodsAgreeOnSmoothInput(t *testing.T) {
	g, c := ladder(10)
	run := func(m Method, h float64, steps int) []float64 {
		var out []float64
		err := Run(g, c, func(tt float64, u []float64) {
			u[0] = 12 * (1 + 0.5*math.Sin(2*math.Pi*tt))
		}, Options{Step: h, Steps: steps, Method: m},
			func(step int, tt float64, x []float64) { out = append(out[:0], x...) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	be := run(BackwardEuler, 1e-3, 1000)
	tr := run(Trapezoidal, 1e-3, 1000)
	for i := range be {
		if math.Abs(be[i]-tr[i]) > 1e-2*(1+math.Abs(tr[i])) {
			t.Errorf("node %d: BE %g vs TR %g", i, be[i], tr[i])
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if err := (Options{Step: 0, Steps: 1}).Validate(); err == nil {
		t.Error("zero step accepted")
	}
	if err := (Options{Step: 1, Steps: 0}).Validate(); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestStepperSymbolicReuse(t *testing.T) {
	g, c := ladder(30)
	opts := Options{Step: 1e-2, Steps: 5, Method: BackwardEuler}
	// First stepper computes its own symbolic; a second shares it, then
	// refactors in place after its G values change.
	s1, err := NewStepper(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	opts2 := opts
	opts2.Symbolic = s1.Symbolic()
	s2, err := NewStepper(g2, c, opts2)
	if err != nil {
		t.Fatal(err)
	}
	g2.Scale(1.1)
	if err := s2.Refactor(); err != nil {
		t.Fatal(err)
	}
	// Verify: one BE step from the same start must satisfy the
	// perturbed companion equation.
	x0 := make([]float64, 30)
	for i := range x0 {
		x0[i] = 1
	}
	if err := s2.Init(x0); err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 30)
	u[0] = 12
	if err := s2.Advance(u); err != nil {
		t.Fatal(err)
	}
	// Residual of (G2 + C/h)x⁺ = C/h·x0 + u.
	a := sparse.Add(1, g2, 1/opts.Step, c)
	lhs := make([]float64, 30)
	a.MulVec(lhs, s2.State())
	cx := make([]float64, 30)
	c.MulVec(cx, x0)
	for i := range lhs {
		want := cx[i]/opts.Step + u[i]
		if math.Abs(lhs[i]-want) > 1e-9 {
			t.Fatalf("residual at %d: %g vs %g", i, lhs[i], want)
		}
	}
}

// TestInitDCFallsBackToFactoringG drives InitDC past its companion-
// preconditioned CG: with 1e6 F node capacitors and h = 1e-3 the
// companion G + C/h is almost C/h, a useless preconditioner for G, so
// CG exhausts its 200 iterations and InitDC factors G itself.
func TestInitDCFallsBackToFactoringG(t *testing.T) {
	const n = 1500
	g, c := ladder(n) // resistor chain, grounded through the pad at node 0
	c = c.Clone().Scale(1e7)
	reg := obs.NewRegistry()
	factor.SetMetrics(reg)
	t.Cleanup(func() { factor.SetMetrics(nil) })
	st, err := NewStepper(g, c, Options{Step: 1e-3, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, n)
	u0[0] = 10 * 1.2 // pad Norton injection
	for i := 1; i < n; i++ {
		u0[i] = -1e-6 // load currents
	}
	if err := st.InitDC(u0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["factor.factorizations_total"]; got != 2 {
		t.Fatalf("%d factorizations, want 2 (the companion, then G)", got)
	}
	gx := make([]float64, n)
	g.MulVec(gx, st.State())
	res := 0.0
	for i := range gx {
		res = math.Max(res, math.Abs(gx[i]-u0[i]))
	}
	if res > 1e-9 {
		t.Errorf("DC residual ‖G·x − u0‖∞ = %g", res)
	}
}

func TestTrapezoidalRequiresHistory(t *testing.T) {
	g, c := ladder(5)
	s, err := NewStepper(g, c, Options{Step: 1e-2, Steps: 2, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Init(make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 5)
	if err := s.Advance(u); err == nil {
		t.Error("trapezoidal Advance without history should fail")
	}
	if err := s.SetPrevExcitation(u); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(u); err != nil {
		t.Errorf("Advance after SetPrevExcitation failed: %v", err)
	}
}

func TestStepperAccessorsAndStrings(t *testing.T) {
	if BackwardEuler.String() != "backward-euler" || Trapezoidal.String() != "trapezoidal" {
		t.Error("method names wrong")
	}
	if s := Method(99).String(); s == "" {
		t.Error("unknown method should still stringify")
	}
	g, c := singleRC(1, 1)
	st, err := NewStepper(g, c, Options{Step: 0.5, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init([]float64{2}); err != nil {
		t.Fatal(err)
	}
	if st.Time() != 0 || st.StepCount() != 0 {
		t.Error("fresh stepper state wrong")
	}
	if err := st.Advance([]float64{0}); err != nil {
		t.Fatal(err)
	}
	if st.Time() != 0.5 || st.StepCount() != 1 {
		t.Errorf("time %g steps %d", st.Time(), st.StepCount())
	}
}

func TestStepperDimensionErrors(t *testing.T) {
	g, c := singleRC(1, 1)
	if _, err := NewStepper(g, sparse.FromDense([][]float64{{1, 0}, {0, 1}}),
		Options{Step: 1, Steps: 1}); err == nil {
		t.Error("mismatched C accepted")
	}
	st, err := NewStepper(g, c, Options{Step: 1, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init([]float64{1, 2}); err == nil {
		t.Error("wrong x0 length accepted")
	}
	if err := st.InitDC([]float64{1, 2}); err == nil {
		t.Error("wrong u0 length accepted")
	}
	if err := st.Advance([]float64{1, 2}); err == nil {
		t.Error("wrong u length accepted")
	}
	if err := st.SetPrevExcitation([]float64{1, 2}); err == nil {
		t.Error("wrong prev length accepted")
	}
}

func TestRunPropagatesBadOptions(t *testing.T) {
	g, c := singleRC(1, 1)
	if err := Run(g, c, func(float64, []float64) {}, Options{Step: 0, Steps: 3}, nil); err == nil {
		t.Error("bad options accepted")
	}
}

func TestRunNilVisit(t *testing.T) {
	g, c := singleRC(1, 1)
	if err := Run(g, c, func(tt float64, u []float64) { u[0] = 1 },
		Options{Step: 0.1, Steps: 3}, nil); err != nil {
		t.Fatal(err)
	}
}

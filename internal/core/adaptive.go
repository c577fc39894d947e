package core

import (
	"fmt"
	"math"

	"opera/internal/cancel"
	"opera/internal/mna"
)

// AdaptiveOptions controls order selection for AnalyzeAdaptive.
type AdaptiveOptions struct {
	// Base carries the time stepping and variation model; its Order
	// field is the starting order (default 1).
	Base Options
	// MaxOrder caps the escalation (default 4).
	MaxOrder int
	// Tol is the convergence criterion: stop when the relative change
	// of the grid-wide maximum standard deviation between consecutive
	// orders falls below Tol (default 0.01).
	Tol float64
}

// AdaptiveResult records the escalation trace alongside the final
// analysis.
type AdaptiveResult struct {
	*Result
	// OrdersTried lists each order run, with the convergence indicator
	// measured against the previous order (NaN for the first).
	OrdersTried []AdaptiveStep
	Converged   bool
}

// AdaptiveStep is one entry of the escalation trace.
type AdaptiveStep struct {
	Order     int
	MaxStd    float64
	RelChange float64
}

// AnalyzeAdaptive implements the paper's §2 observation that "the
// expansion can be optimally truncated to any order depending on the
// available computational resources and accuracy requirements": it
// increases the expansion order until the predicted variance stabilizes
// (the dominant truncation error is in the variance — the mean
// converges at order 1 for near-linear responses).
func AnalyzeAdaptive(sys *mna.System, opts AdaptiveOptions) (*AdaptiveResult, error) {
	base := opts.Base.withDefaults()
	if base.Order == 0 || opts.Base.Order == 0 {
		base.Order = 1
	}
	if opts.MaxOrder == 0 {
		opts.MaxOrder = 4
	}
	if opts.Tol == 0 {
		opts.Tol = 0.01
	}
	if base.Order > opts.MaxOrder {
		return nil, fmt.Errorf("core: starting order %d exceeds MaxOrder %d", base.Order, opts.MaxOrder)
	}
	out := &AdaptiveResult{}
	prevMax := math.NaN()
	for p := base.Order; p <= opts.MaxOrder; p++ {
		if err := cancel.Poll(base.Ctx, "core.adaptive", p); err != nil {
			return nil, err
		}
		o := base
		o.Order = p
		res, err := Analyze(sys, o)
		if err != nil {
			return nil, fmt.Errorf("core: adaptive order %d: %w", p, err)
		}
		maxStd := res.MaxStd()
		rel := math.NaN()
		if !math.IsNaN(prevMax) && prevMax > 0 {
			rel = math.Abs(maxStd-prevMax) / prevMax
		}
		out.Result = res
		out.OrdersTried = append(out.OrdersTried, AdaptiveStep{Order: p, MaxStd: maxStd, RelChange: rel})
		if !math.IsNaN(rel) && rel < opts.Tol {
			out.Converged = true
			return out, nil
		}
		prevMax = maxStd
	}
	return out, nil
}

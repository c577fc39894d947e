package grid

import (
	"fmt"

	"opera/internal/factor"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/order"
)

// calibrate rescales every current source so the worst nominal DC drop,
// sampled across one clock period, equals PeakDropFrac·VDD — realizing
// the paper's §6 condition that "the peak drop in the voltage at any
// grid node was less than 10% of the VDD".
func calibrate(s Spec, nl *netlist.Netlist) error {
	sys, err := mna.Build(nl, mna.VariationSpec{})
	if err != nil {
		return fmt.Errorf("grid: calibration stamping: %w", err)
	}
	perm := order.NestedDissection(order.NewGraph(sys.Ga), 0)
	f, err := factor.Cholesky(sys.Ga, perm)
	if err != nil {
		return fmt.Errorf("grid: calibration factorization: %w", err)
	}
	u := make([]float64, sys.N)
	v := make([]float64, sys.N)
	maxDrop := 0.0
	const samples = 24
	for k := 0; k <= samples; k++ {
		t := s.ClockPeriod * float64(k) / samples
		sys.RHS(t, u, nil)
		f.SolveTo(v, u)
		for _, vi := range v {
			if d := s.VDD - vi; d > maxDrop {
				maxDrop = d
			}
		}
	}
	if maxDrop <= 0 {
		return fmt.Errorf("grid: calibration found no voltage drop; no load currents?")
	}
	gain := s.PeakDropFrac * s.VDD / maxDrop
	for i := range nl.Sources {
		nl.Sources[i].Wave = &netlist.Scaled{Inner: nl.Sources[i].Wave, Gain: gain}
	}
	return nil
}

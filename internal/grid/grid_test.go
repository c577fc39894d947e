package grid

import (
	"bytes"
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/mna"
	"opera/internal/netlist"
	"opera/internal/order"
)

func TestSpecNodeCount(t *testing.T) {
	s := DefaultSpec(1000, 1)
	n := s.NumNodes()
	if n < 700 || n > 1400 {
		t.Errorf("DefaultSpec(1000) produced %d nodes", n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildProducesValidNetlist(t *testing.T) {
	nl, err := Build(DefaultSpec(400, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("generated netlist invalid: %v", err)
	}
	if len(nl.Pads) < 2 {
		t.Errorf("only %d pads", len(nl.Pads))
	}
	if len(nl.Caps) == 0 || len(nl.Sources) == 0 {
		t.Error("missing caps or sources")
	}
}

func TestBuildDeterministicForSeed(t *testing.T) {
	a, err := Build(DefaultSpec(300, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(DefaultSpec(300, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("source counts differ: %d vs %d", len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		for _, tt := range []float64{0, 3e-10, 1.1e-9} {
			if a.Sources[i].Wave.At(tt) != b.Sources[i].Wave.At(tt) {
				t.Fatalf("source %d waveform differs", i)
			}
		}
	}
	c, err := Build(DefaultSpec(300, 43))
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range a.Sources {
		if i < len(c.Sources) && a.Sources[i].Wave.At(5e-10) != c.Sources[i].Wave.At(5e-10) {
			diff = true
			break
		}
	}
	if !diff && len(a.Sources) == len(c.Sources) {
		t.Error("different seeds produced identical grids")
	}
}

func TestCalibrationHitsPeakDrop(t *testing.T) {
	s := DefaultSpec(500, 3)
	nl, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	perm := order.NestedDissection(order.NewGraph(sys.Ga), 0)
	f, err := factor.Cholesky(sys.Ga, perm)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, sys.N)
	v := make([]float64, sys.N)
	maxDrop := 0.0
	for k := 0; k <= 24; k++ {
		tt := s.ClockPeriod * float64(k) / 24
		sys.RHS(tt, u, nil)
		f.SolveTo(v, u)
		for _, vi := range v {
			if d := s.VDD - vi; d > maxDrop {
				maxDrop = d
			}
		}
	}
	want := s.PeakDropFrac * s.VDD
	if math.Abs(maxDrop-want) > 0.02*want {
		t.Errorf("calibrated peak drop %g, want %g", maxDrop, want)
	}
	// The paper's condition: below 10% of VDD.
	if maxDrop >= 0.1*s.VDD {
		t.Errorf("peak drop %g violates the <10%% VDD condition", maxDrop)
	}
}

func TestGridIsSolvableSPD(t *testing.T) {
	nl, err := Build(DefaultSpec(800, 11))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Ga.IsSymmetric(1e-12) {
		t.Error("Ga not symmetric")
	}
	if _, err := factor.Cholesky(sys.UnionPattern(), nil); err != nil {
		t.Errorf("union pattern not SPD-factorable: %v", err)
	}
}

func TestRegionsCoverAllSources(t *testing.T) {
	s := DefaultSpec(400, 5)
	s.Regions = 2
	nl, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, src := range nl.Sources {
		if src.Region < 0 || src.Region >= s.NumRegions() {
			t.Fatalf("source %q region %d outside [0,%d)", src.Name, src.Region, s.NumRegions())
		}
		seen[src.Region] = true
	}
	if len(seen) != s.NumRegions() {
		t.Errorf("only %d of %d regions have sources", len(seen), s.NumRegions())
	}
}

func TestNoCoarseMesh(t *testing.T) {
	s := DefaultSpec(300, 9)
	s.CoarseStride = 0
	nl, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumNodes != s.Rows*s.Cols {
		t.Errorf("nodes %d, want %d", nl.NumNodes, s.Rows*s.Cols)
	}
}

func TestGeneratedNetlistSerializes(t *testing.T) {
	nl, err := Build(DefaultSpec(200, 13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	got, err := netlist.Read(&buf)
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if got.NumNodes != nl.NumNodes || len(got.Sources) != len(nl.Sources) {
		t.Error("round trip changed the grid")
	}
	// Waveform fidelity within the PWL sampling resolution.
	for i := range nl.Sources {
		for _, tt := range []float64{1e-10, 5e-10, 1.5e-9} {
			a := nl.Sources[i].Wave.At(tt)
			b := got.Sources[i].Wave.At(tt)
			scale := math.Abs(a) + 1e-9
			if math.Abs(a-b) > 0.15*scale {
				t.Errorf("source %d at t=%g: %g vs %g", i, tt, a, b)
			}
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := DefaultSpec(100, 1)
	bad.Rows = 1
	if err := bad.Validate(); err == nil {
		t.Error("1-row mesh accepted")
	}
	bad = DefaultSpec(100, 1)
	bad.PeakDropFrac = 0.9
	if err := bad.Validate(); err == nil {
		t.Error("90% drop target accepted")
	}
	bad = DefaultSpec(100, 1)
	bad.ClockPeriod = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
}

func TestMacroBlockages(t *testing.T) {
	s := DefaultSpec(900, 17)
	s.Macros = 3
	nl, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	// The blocked grid must have fewer mesh resistors and caps than the
	// unblocked one, and still be solvable.
	s2 := s
	s2.Macros = 0
	open, err := Build(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Caps) >= len(open.Caps) {
		t.Errorf("macros should remove caps: %d vs %d", len(nl.Caps), len(open.Caps))
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	perm := order.NestedDissection(order.NewGraph(sys.Ga), 0)
	if _, err := factor.Cholesky(sys.Ga, perm); err != nil {
		t.Fatalf("macro grid not solvable: %v", err)
	}
	// Calibration still holds the drop target.
	f, err := factor.Cholesky(sys.Ga, perm)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, sys.N)
	v := make([]float64, sys.N)
	maxDrop := 0.0
	for k := 0; k <= 24; k++ {
		tt := s.ClockPeriod * float64(k) / 24
		sys.RHS(tt, u, nil)
		f.SolveTo(v, u)
		for _, vi := range v {
			if d := s.VDD - vi; d > maxDrop {
				maxDrop = d
			}
		}
	}
	if maxDrop >= 0.1*s.VDD {
		t.Errorf("macro grid drop %g violates the <10%% condition", maxDrop)
	}
}

func TestMacroGridEndToEnd(t *testing.T) {
	s := DefaultSpec(600, 23)
	s.Macros = 2
	nl, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The union pattern must still factor (OPERA runs on macro grids).
	if _, err := factor.Cholesky(sys.UnionPattern(), nil); err != nil {
		t.Fatalf("macro grid union pattern: %v", err)
	}
}

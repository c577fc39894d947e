package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"opera/internal/obs"
)

// tinySuite exercises all five solve paths at the smallest grid the
// generator emits, so the whole test stays well under a second.
func tinySuite() []Scenario {
	return []Scenario{
		{Name: "t-transient", Path: "transient", Nodes: 64, Steps: 3, Seed: 2},
		{Name: "t-mc", Path: "mc", Nodes: 64, Steps: 3, Samples: 4, Seed: 2},
		{Name: "t-decoupled", Path: "decoupled", Nodes: 64, Order: 2, Steps: 3, Seed: 2},
		{Name: "t-separable", Path: "separable", Nodes: 64, Order: 1, Steps: 2, Seed: 2},
		{Name: "t-coupled", Path: "coupled", Nodes: 64, Order: 1, Steps: 2, Seed: 2},
	}
}

func runTiny(t *testing.T) *Report {
	t.Helper()
	tr := obs.New("bench-test")
	rep, err := Run("tiny", tinySuite(), RunOptions{Workers: 2, Tracer: tr, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestRunAllPaths(t *testing.T) {
	rep := runTiny(t)
	if rep.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", rep.Schema, SchemaVersion)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.WallMS <= 0 {
			t.Errorf("%s: wall_ms = %g, want > 0", r.Name, r.WallMS)
		}
		if r.AllocBytes == 0 {
			t.Errorf("%s: alloc_bytes = 0", r.Name)
		}
		// Every path reports the deterministic factor metrics: flops and
		// fill from the factorization that served (or, for the nominal
		// transient, would serve) the solve.
		if r.FactorFlops <= 0 {
			t.Errorf("%s: factor_flops = %d, want > 0", r.Name, r.FactorFlops)
		}
		if r.FillRatio < 1 {
			t.Errorf("%s: fill_ratio = %g, want >= 1", r.Name, r.FillRatio)
		}
		if r.FactorNNZ <= 0 {
			t.Errorf("%s: factor_nnz = %d, want > 0", r.Name, r.FactorNNZ)
		}
	}
	// The stochastic paths carry numerical health on top.
	for _, r := range rep.Rows {
		if r.Path == "decoupled" || r.Path == "separable" || r.Path == "coupled" {
			if r.CondEst <= 0 {
				t.Errorf("%s: cond_est = %g, want > 0", r.Name, r.CondEst)
			}
			if r.MaxResidual <= 0 {
				t.Errorf("%s: max_residual = %g, want > 0", r.Name, r.MaxResidual)
			}
			if r.Rung == "" {
				t.Errorf("%s: empty rung", r.Name)
			}
		}
		if r.Path == "coupled" && r.CGIterations <= 0 {
			t.Errorf("%s: cg_iterations = %d, want > 0", r.Name, r.CGIterations)
		}
		if r.Path == "separable" && (r.CGIterations != 0 || r.Rung != "supernodal") {
			t.Errorf("%s: cg_iterations = %d on %q, want the eigenbasis recursions' 0 on supernodal", r.Name, r.CGIterations, r.Rung)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := runTiny(t)
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip changed the report:\n  in:  %+v\n  out: %+v", rep, got)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeReport(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Fatal("want error for unknown schema version")
	}
}

// syntheticReport builds a fixed report so the comparison tests are
// deterministic and independent of machine speed.
func syntheticReport() *Report {
	rep := NewReport("synthetic", 2)
	rep.Rows = []Row{
		{Name: "a", Path: "decoupled", WallMS: 120, AllocBytes: 8 << 20,
			FactorNNZ: 5000, FactorFlops: 400000, FillRatio: 2.5, Escalations: 0},
		{Name: "b", Path: "mc", WallMS: 60, AllocBytes: 4 << 20,
			FactorNNZ: 3000, FactorFlops: 200000, FillRatio: 2.0, Escalations: 0},
	}
	return rep
}

func TestCompareClean(t *testing.T) {
	base := syntheticReport()
	c := Compare(base, base, nil)
	if rc := c.ExitCode(); rc != 0 {
		t.Fatalf("identical reports: exit %d, want 0 (fails=%d warns=%d)", rc, c.Fails, c.Warns)
	}
}

func TestCompareSlowdownWarns(t *testing.T) {
	base := syntheticReport()
	slow := syntheticReport()
	for i := range slow.Rows {
		slow.Rows[i].WallMS *= 2 // exactly the 2x acceptance scenario
	}
	c := Compare(base, slow, nil)
	if rc := c.ExitCode(); rc == 0 {
		t.Fatalf("2x slowdown: exit 0, want nonzero")
	}
	var md bytes.Buffer
	if err := c.WriteMarkdown(&md); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	out := md.String()
	if !strings.Contains(out, "| a | wall_ms |") || !strings.Contains(out, "2.00x") {
		t.Fatalf("markdown missing the wall_ms delta:\n%s", out)
	}
}

func TestCompareDeterministicRegressionFails(t *testing.T) {
	base := syntheticReport()
	worse := syntheticReport()
	worse.Rows[0].FactorFlops = worse.Rows[0].FactorFlops * 3 / 2
	c := Compare(base, worse, nil)
	if rc := c.ExitCode(); rc != 2 {
		t.Fatalf("flops regression: exit %d, want 2", rc)
	}
	var md bytes.Buffer
	if err := c.WriteMarkdown(&md); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	if !strings.Contains(md.String(), "FAIL") {
		t.Fatalf("markdown missing FAIL flag:\n%s", md.String())
	}
}

// TestCompareCGIterationsExact gates CG iterations like escalations:
// one more iteration fails, one fewer passes.
func TestCompareCGIterationsExact(t *testing.T) {
	base := syntheticReport()
	base.Rows[0].CGIterations = 40
	more, fewer := syntheticReport(), syntheticReport()
	more.Rows[0].CGIterations, fewer.Rows[0].CGIterations = 41, 39
	if rc := Compare(base, more, nil).ExitCode(); rc != 2 {
		t.Errorf("41 vs 40 CG iterations: exit %d, want 2", rc)
	}
	if rc := Compare(base, fewer, nil).ExitCode(); rc != 0 {
		t.Errorf("39 vs 40 CG iterations: exit %d, want 0", rc)
	}
}

func TestCompareNoiseFloor(t *testing.T) {
	base := syntheticReport()
	base.Rows[0].WallMS = 8
	jitter := syntheticReport()
	jitter.Rows[0].WallMS = 15 // 1.9x but both inside the 20 ms floor
	c := Compare(base, jitter, nil)
	if rc := c.ExitCode(); rc != 0 {
		t.Fatalf("sub-floor jitter: exit %d, want 0", rc)
	}
}

func TestCompareMissingRowFails(t *testing.T) {
	base := syntheticReport()
	short := syntheticReport()
	short.Rows = short.Rows[:1]
	c := Compare(base, short, nil)
	if rc := c.ExitCode(); rc != 2 {
		t.Fatalf("missing row: exit %d, want 2", rc)
	}
	if len(c.MissingRows) != 1 || c.MissingRows[0] != "b" {
		t.Fatalf("MissingRows = %v, want [b]", c.MissingRows)
	}
}

func TestSuiteNames(t *testing.T) {
	for _, name := range []string{"quick", "default"} {
		scs, err := Suite(name)
		if err != nil || len(scs) == 0 {
			t.Fatalf("Suite(%q) = %d scenarios, err %v", name, len(scs), err)
		}
		seen := map[string]bool{}
		for _, sc := range scs {
			if seen[sc.Name] {
				t.Errorf("suite %q: duplicate scenario name %q", name, sc.Name)
			}
			seen[sc.Name] = true
		}
	}
	if _, err := Suite("bogus"); err == nil {
		t.Fatal("want error for unknown suite")
	}
}

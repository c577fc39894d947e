package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"opera/internal/core"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{0.5, 9, 2.25, 7, 1}, [3]float64{0.75, 2.25, 8}},
	} {
		q1, q2, q3, err := quartiles(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestPercentileCountsTheTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{100, 1000, 0},
	} {
		v, beyond := percentile(xs, tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", tc.p, v, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("empty percentile = %g, %d", v, beyond)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 10}
	for _, tc := range []struct {
		kids []interval
		want float64
	}{
		{nil, 10},
		{[]interval{{1, 3}}, 8},
		// Overlapping children (parallel workers) count once; a child
		// sticking out of the parent is clipped to it.
		{[]interval{{1, 3}, {2, 5}, {8, 12}}, 4},
		{[]interval{{-5, 20}}, 0},
		{[]interval{{11, 12}}, 10},
	} {
		if got := selfTime(parent, tc.kids); !near(got, tc.want) {
			t.Errorf("selfTime(%v) = %g, want %g", tc.kids, got, tc.want)
		}
	}
}

// TestSelfTimesOnCoupledTrace runs a small OPERA analysis on the coupled
// path, where galerkin.assemble nests under factor, and checks that
// factor's self time excludes the assembly and that the six phases
// never claim more than the whole analysis.
func TestSelfTimesOnCoupledTrace(t *testing.T) {
	nl, err := grid.Build(grid.DefaultSpec(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("test")
	if _, err := core.Analyze(sys, core.Options{Order: 2, Step: 1e-10, Steps: 5, Obs: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	d := tr.Dump()
	var factorSpan *obs.SpanDump
	for i := range d.Spans {
		if d.Spans[i].Name == "factor" {
			factorSpan = &d.Spans[i]
		}
	}
	if factorSpan == nil || len(factorSpan.Spans) == 0 || factorSpan.Spans[0].Name != "galerkin.assemble" {
		t.Fatalf("coupled trace lacks galerkin.assemble under factor: %+v", d.Spans)
	}
	self := selfTimesMS(d)
	want := factorSpan.DurMS - factorSpan.Spans[0].DurMS
	if math.Abs(self["factor"]-want) > 1e-9 {
		t.Errorf("factor self time %g ms, want %g (duration minus assembly)", self["factor"], want)
	}
	if math.Abs(self["galerkin.assemble"]-factorSpan.Spans[0].DurMS) > 1e-9 {
		t.Errorf("assembly self time %g ms, want its whole duration %g", self["galerkin.assemble"], factorSpan.Spans[0].DurMS)
	}
	sum := 0.0
	for _, pm := range phaseMetrics {
		if pm.span != "moments" { // recorded after the fact, overlapping transient
			sum += self[pm.span]
		}
	}
	if sum > d.TotalMS*1.001 {
		t.Errorf("phase self times sum to %g ms, more than the %g ms analysis", sum, d.TotalMS)
	}
}

// validName reports whether s is a legal metric name: it starts with a
// letter or digit and uses only [A-Za-z0-9_.-], at most 64 characters.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !alnum && (i == 0 || (r != '_' && r != '.' && r != '-')) {
			return false
		}
	}
	return true
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "factor.flops", "service.queue_wait_ms_p99", "9x", "a-b"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", "p99%", string(bytes.Repeat([]byte("a"), 65))} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON checks every metric name the
// benchmark prints and keeps the list in BENCHMARK.json in step with it.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, lists := range []struct {
		code []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(lists.code) != len(lists.json) {
			t.Errorf("code lists %d metrics, BENCHMARK.json %d", len(lists.code), len(lists.json))
			continue
		}
		for i, d := range lists.code {
			if !validName(d.name) || seen[d.name] {
				t.Errorf("metric name %q invalid or repeated", d.name)
			}
			seen[d.name] = true
			if j := lists.json[i]; j.Name != d.name || j.Unit != d.unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, j.Name, j.Unit)
			}
		}
	}
}

func TestParsePromRoundTrip(t *testing.T) {
	mk := func(hits int64, obsMS ...float64) obs.MetricsSnapshot {
		reg := obs.NewRegistry()
		reg.Counter("service.cache_hits_total").Add(hits)
		h := reg.Histogram("service.queue_wait_ms.interactive", obs.MSBuckets)
		for _, v := range obsMS {
			h.Observe(v)
		}
		return reg.Snapshot()
	}
	shards := map[string]obs.MetricsSnapshot{"s0": mk(3, 0.5, 2, 40), "s1": mk(4, 7, 7, 250)}
	var buf bytes.Buffer
	if err := obs.WriteFederatedProm(&buf, shards); err != nil {
		t.Fatal(err)
	}
	ps, err := parseProm(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.value("service_cache_hits_total", "cluster"); got != 7 {
		t.Errorf("cluster hits = %g, want 7", got)
	}
	want := obs.AggregateSnapshots(shards).Histograms["service.queue_wait_ms.interactive"]
	got := ps.hist("service_queue_wait_ms_interactive", "cluster")
	if got.Count != want.Count || !near(got.Sum, want.Sum) {
		t.Errorf("cluster histogram count/sum %d/%g, want %d/%g", got.Count, got.Sum, want.Count, want.Sum)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Errorf("q%g = %g, want %g", q, got.Quantile(q), want.Quantile(q))
		}
	}
}

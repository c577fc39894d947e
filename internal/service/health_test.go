package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"opera/internal/obs"
)

// TestJobResultCarriesHealth pins the numerical-health block on the
// wire result: rung, residual, condition estimate, flops and fill of
// the factorization that served the solve — and the same record on the
// job's flight entry.
func TestJobResultCarriesHealth(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1, FlightJobs: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	sub, err := c.Submit(ctx, quickRequest(71))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}
	jr, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	h := jr.Health
	if h == nil {
		t.Fatal("result missing the health block")
	}
	if h.Rung == "" {
		t.Error("health: empty rung")
	}
	if h.FactorFlops <= 0 {
		t.Errorf("health: factor_flops = %d, want > 0", h.FactorFlops)
	}
	if h.FillRatio < 1 {
		t.Errorf("health: fill_ratio = %g, want >= 1", h.FillRatio)
	}
	if h.FactorNNZ <= 0 {
		t.Errorf("health: factor_nnz = %d, want > 0", h.FactorNNZ)
	}
	if h.MaxResidual <= 0 {
		t.Errorf("health: max_residual = %g, want > 0 (verification on)", h.MaxResidual)
	}
	if h.CondEstimate <= 0 {
		t.Errorf("health: cond_estimate = %g, want > 0", h.CondEstimate)
	}

	// The flight entry carries the same record.
	resp, err := http.Get(ts.URL + "/debug/flight?trace=" + jr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entry obs.FlightEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	fh, ok := entry.Health.(map[string]any)
	if !ok || fh == nil {
		t.Fatalf("flight entry health = %#v, want the NumHealth record", entry.Health)
	}
	if fh["rung"] != h.Rung {
		t.Errorf("flight health rung = %v, want %q", fh["rung"], h.Rung)
	}
}

// TestMCResultCarriesHealth covers the Monte Carlo path: factor stats
// come from the shared symbolic analysis, flops scale with samples.
func TestMCResultCarriesHealth(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	req := quickRequest(72)
	req.Analysis = KindMC
	req.Samples = 8
	sub, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}
	jr, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Health == nil {
		t.Fatal("MC result missing the health block")
	}
	if jr.Health.Rung != "supernodal" {
		t.Errorf("MC rung = %q, want supernodal", jr.Health.Rung)
	}
	if jr.Health.FactorFlops <= 0 || jr.Health.FactorNNZ <= 0 {
		t.Errorf("MC factor stats missing: %+v", jr.Health)
	}
}

// TestSLOBreachProfileCapture is the e2e acceptance flow: a job that
// overruns its latency objective gets pprof evidence captured while it
// is still running, retrievable at /debug/profiles by trace ID.
func TestSLOBreachProfileCapture(t *testing.T) {
	// The objective sits well above the fast job's run time even under
	// -race on a small host (about 60 ms there), and well below the slow
	// job's (seconds).
	const objective = 500 * time.Millisecond
	s := newTestServer(t, Options{
		QueueDepth: 4, ConcurrentJobs: 1, FlightJobs: 4,
		SLOProfileAfter: objective,
	})
	s.Profiles().CPUDuration = 30 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Enough transient steps that the solve comfortably outlives the
	// objective on any machine.
	spec := quickRequest(73)
	spec.Steps = 20000
	spec.NoCache = true
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}

	// The CPU window may still be open when the job finishes; poll
	// briefly for both capture kinds.
	deadline := time.Now().Add(3 * time.Second)
	var heapOK, cpuOK bool
	for time.Now().Before(deadline) && !(heapOK && cpuOK) {
		_, heapOK = s.Profiles().Get(st.TraceID, "heap")
		_, cpuOK = s.Profiles().Get(st.TraceID, "cpu")
		time.Sleep(10 * time.Millisecond)
	}
	if !heapOK || !cpuOK {
		t.Fatalf("captures after breach: heap=%v cpu=%v", heapOK, cpuOK)
	}
	if n := s.reg.Snapshot().Counters["service.slo_profiles_total"]; n < 1 {
		t.Errorf("service.slo_profiles_total = %d, want >= 1", n)
	}

	// Retrievable over HTTP: the index lists the trace, the raw pprof
	// bytes download.
	resp, err := http.Get(ts.URL + "/debug/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Profiles []obs.Profile `json:"profiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, p := range idx.Profiles {
		if p.TraceID == st.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/profiles index missing trace %s: %+v", st.TraceID, idx.Profiles)
	}
	resp, err = http.Get(ts.URL + "/debug/profiles/" + st.TraceID + "/heap")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("heap download: status %d, %d bytes", resp.StatusCode, len(body))
	}

	// A job that finishes inside the objective leaves no capture.
	fast := quickRequest(74)
	sub2, err := c.Submit(ctx, fast)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, sub2.ID)
	if err != nil || st2.State != StateDone {
		t.Fatalf("fast job: %+v, %v", st2, err)
	}
	if objMS := float64(objective) / float64(time.Millisecond); st2.RunMS >= objMS {
		t.Fatalf("fast job ran %.1f ms, not inside the %.0f ms objective; the test cannot tell a capture from a breach", st2.RunMS, objMS)
	}
	time.Sleep(50 * time.Millisecond) // let a capture in flight land
	if _, ok := s.Profiles().Get(st2.TraceID, "heap"); ok {
		t.Error("fast job was profiled despite finishing inside the objective")
	}
}

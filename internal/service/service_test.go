package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opera/internal/grid"
	"opera/internal/netlist"
	"opera/internal/obs"
)

// quickRequest is a small grid that solves in tens of milliseconds.
func quickRequest(seed int64) Request {
	spec := grid.DefaultSpec(64, seed)
	return Request{Grid: &spec, Steps: 3, Step: 1e-10}
}

// slowRequest runs long enough to be observed mid-flight and canceled:
// an OPERA transient with many steps (each step is a cancellation
// point).
func slowRequest(seed int64) Request {
	spec := grid.DefaultSpec(64, seed)
	return Request{Grid: &spec, Steps: 50000, Step: 1e-12, NoCache: true}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestRequestKeyCanonical(t *testing.T) {
	// Spelled-out defaults hash like omitted ones.
	a := Request{Netlist: "x", Analysis: "opera", Order: 2, Step: 1e-10, Steps: 20, Ordering: "amd"}
	b := Request{Netlist: "x"}
	a.Normalize()
	b.Normalize()
	if a.Key() != b.Key() {
		t.Error("normalized defaults must share a key")
	}
	// Execution knobs do not contribute.
	c := Request{Netlist: "x", Priority: PriorityBatch, TimeoutMS: 5000, Workers: 7, NoCache: true}
	c.Normalize()
	if c.Key() != a.Key() {
		t.Error("execution knobs leaked into the cache key")
	}
	// Semantic fields do.
	d := Request{Netlist: "x", Order: 3}
	d.Normalize()
	if d.Key() == a.Key() {
		t.Error("different order must change the key")
	}
	// An explicit non-default ordering is a different computation.
	e := Request{Netlist: "x", Ordering: "nd"}
	e.Normalize()
	if e.Key() == a.Key() {
		t.Error("ordering nd must not share the default (amd) key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(100, reg)
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// c displaces b (LRU), not the just-touched a.
	c.Put("c", make([]byte, 40))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if c.Bytes() > 100 {
		t.Errorf("over budget: %d", c.Bytes())
	}
	// Oversized entries are not stored.
	c.Put("huge", make([]byte, 101))
	if _, ok := c.Get("huge"); ok {
		t.Error("entry larger than the budget must not be stored")
	}
	snap := reg.Snapshot()
	if snap.Counters["service.cache_evictions_total"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["service.cache_evictions_total"])
	}
}

// TestEndToEndCacheHit is the ISSUE's acceptance flow: two identical
// submissions over HTTP cost one solve, the second is flagged as a
// cache hit, cache_hits_total reads 1, and the result payloads are
// byte-identical.
func TestEndToEndCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	sub1, err := c.Submit(ctx, quickRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if sub1.Cached || sub1.Coalesced {
		t.Fatalf("first submission should be fresh: %+v", sub1)
	}
	st, err := c.Wait(ctx, sub1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job 1: %s (%s)", st.State, st.Error)
	}
	bytes1, err := c.ResultBytes(ctx, sub1.ID)
	if err != nil {
		t.Fatal(err)
	}

	sub2, err := c.Submit(ctx, quickRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.Cached || sub2.State != StateDone {
		t.Fatalf("second submission should be a cache hit: %+v", sub2)
	}
	if sub2.ID == sub1.ID {
		t.Error("cache hit must still mint its own job id")
	}
	bytes2, err := c.ResultBytes(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes1, bytes2) {
		t.Error("cached result is not byte-identical to the original")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["service.cache_hits_total"]; got != 1 {
		t.Errorf("service.cache_hits_total = %d, want 1", got)
	}
	// A decoded result must carry the solver telemetry.
	res, err := c.Result(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindOpera || res.N == 0 || len(res.Mean) != res.Steps+1 {
		t.Errorf("implausible result: kind=%s n=%d steps=%d", res.Kind, res.N, res.Steps)
	}
	if res.Guard == nil || !res.Guard.Healthy {
		t.Errorf("guard summary missing or unhealthy: %+v", res.Guard)
	}
}

// TestQueueOverflow429 fills the bounded queue and checks the HTTP
// contract: 429 with a Retry-After header.
func TestQueueOverflow429(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 1, ConcurrentJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	// No retries: the client must surface the full queue's 429 itself.
	// Retrying would wait out the running job on a fast host and then
	// be admitted; bounded retries have their own test
	// (TestClientRetry429).
	c.MaxRetries = 0
	ctx := context.Background()

	// One job running, one in the queue; distinct seeds so nothing
	// coalesces.
	if _, err := c.Submit(ctx, slowRequest(1)); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, s)
	if _, err := c.Submit(ctx, slowRequest(2)); err != nil {
		t.Fatal(err)
	}
	// Queue full: raw request so the header is visible.
	body, err := json.Marshal(slowRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	var apiErr *APIError
	if _, err := c.Submit(ctx, slowRequest(3)); !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Errorf("client submit on a full queue: %v", err)
	}
}

func waitForRunning(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, st := range s.List() {
			if st.State == StateRunning {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no job reached running state")
}

// TestCancelMidTransient cancels a running job over HTTP and checks it
// reaches the canceled state promptly, with the cancellation visible
// as a structured flag.
func TestCancelMidTransient(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	sub, err := c.Submit(ctx, slowRequest(10))
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, s)
	if _, err := c.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	wctx, cancelWait := context.WithTimeout(ctx, 15*time.Second)
	defer cancelWait()
	st, err := c.Wait(wctx, sub.ID)
	if err != nil {
		t.Fatalf("job did not settle promptly after cancel: %v", err)
	}
	if st.State != StateCanceled || !st.Canceled {
		t.Fatalf("state %s canceled=%v, want canceled", st.State, st.Canceled)
	}
	// The result endpoint refuses with the structured 409.
	if _, err := c.ResultBytes(ctx, sub.ID); err == nil {
		t.Error("result of a canceled job must error")
	}
	// Canceling a queued job works too and frees its slot.
	sub2, err := c.Submit(ctx, slowRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	sub3, err := c.Submit(ctx, slowRequest(12))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Cancel(ctx, sub3.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("canceling queued job: %v %+v", err, st)
	}
	_ = sub2
}

// TestJobTimeout expires a per-job deadline and checks the job lands
// in canceled with the deadline cause.
func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1})
	req := slowRequest(20)
	req.TimeoutMS = 50
	sub, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("timed-out job state %s (%s), want canceled", st.State, st.Error)
	}
}

// TestShutdownDrains: a quick job in flight finishes inside the drain
// window and Shutdown returns nil; readiness flips immediately.
func TestShutdownDrains(t *testing.T) {
	s, err := New(Options{QueueDepth: 4, ConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Submit(quickRequest(30))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if s.Ready() {
		t.Error("server still ready after shutdown")
	}
	st, err := s.Status(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("in-flight job not drained: %s (%s)", st.State, st.Error)
	}
	if _, err := s.Submit(quickRequest(31)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown: %v, want ErrDraining", err)
	}
}

// TestShutdownDeadlineCancels: a job longer than the drain window is
// canceled at the deadline and Shutdown still returns (with the
// deadline error) instead of hanging.
func TestShutdownDeadlineCancels(t *testing.T) {
	s, err := New(Options{QueueDepth: 4, ConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Submit(slowRequest(40))
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from a forced drain, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	st, _ := s.Status(sub.ID)
	if st.State != StateCanceled {
		t.Errorf("straggler state %s, want canceled", st.State)
	}
}

// TestPriorityOrdering checks the queue serves interactive before
// batch regardless of arrival order (workers disabled via a negative
// ConcurrentJobs so the claim order is observable).
func TestPriorityOrdering(t *testing.T) {
	s, err := New(Options{QueueDepth: 8, ConcurrentJobs: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.baseStop()
	batch := quickRequest(50)
	batch.Priority = PriorityBatch
	batch.NoCache = true
	subB, err := s.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	inter := quickRequest(51)
	inter.NoCache = true
	subI, err := s.Submit(inter)
	if err != nil {
		t.Fatal(err)
	}
	if j := s.nextJob(); j == nil || j.id != subI.ID {
		t.Fatalf("first claim %+v, want interactive %s", j, subI.ID)
	}
	if j := s.nextJob(); j == nil || j.id != subB.ID {
		t.Fatalf("second claim %+v, want batch %s", j, subB.ID)
	}
}

// TestJournalReplay simulates a crash: a journal holding a submit with
// no matching end is replayed on construction and the job runs to done
// under its original id; new ids continue after the replayed sequence.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	req := quickRequest(60)
	req.Normalize()
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.record(journalRecord{Event: journalSubmit, ID: "job-000007", Key: req.Key(), Req: &req})
	// A second job that did finish must not replay.
	j.record(journalRecord{Event: journalSubmit, ID: "job-000008", Key: "k", Req: &req})
	j.record(journalRecord{Event: journalEnd, ID: "job-000008", State: StateDone})
	j.close()

	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1, JournalPath: path})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, "job-000007")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("replayed job: %s (%s)", st.State, st.Error)
	}
	if _, err := s.Status("job-000008"); !errors.Is(err, ErrUnknownJob) {
		t.Error("finished journal entry must not be replayed")
	}
	sub, err := s.Submit(quickRequest(61))
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID <= "job-000007" {
		t.Errorf("sequence did not continue past the replayed id: %s", sub.ID)
	}
}

// TestSubmitLimits rejects oversized inputs at admission with the
// structured limit error (413 over HTTP).
func TestSubmitLimits(t *testing.T) {
	s := newTestServer(t, Options{
		QueueDepth: 4, ConcurrentJobs: 1,
		Limits: netlist.Limits{MaxBytes: 64, MaxNodes: 100},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	var apiErr *APIError
	_, err := c.Submit(ctx, Request{Netlist: strings.Repeat("*", 65)})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized netlist: %v, want 413", err)
	}
	spec := grid.DefaultSpec(4096, 1)
	_, err = c.Submit(ctx, Request{Grid: &spec})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized grid: %v, want 413", err)
	}
	var le *netlist.LimitError
	if _, err := s.Submit(Request{Netlist: strings.Repeat("*", 65)}); !errors.As(err, &le) {
		t.Errorf("direct submit: %v, want LimitError", err)
	}
}

// TestCoalescing attaches a second identical submission to the
// in-flight first instead of queueing a duplicate solve.
func TestCoalescing(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1})
	req := slowRequest(70)
	req.NoCache = false // coalescing rides the cache-key path
	sub1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.Coalesced || sub2.ID != sub1.ID {
		t.Fatalf("identical in-flight submission not coalesced: %+v vs %+v", sub2, sub1)
	}
	if _, err := s.Cancel(sub1.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHealthEndpoints exercises /healthz, /readyz and /metrics.
func TestHealthEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
	if _, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

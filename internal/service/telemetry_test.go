package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"opera/internal/obs"
	"opera/internal/obs/logx"
)

// syncBuffer is a concurrency-safe log sink (job lifecycle events are
// written from worker goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// logEvents decodes the buffer's JSON lines and returns the events
// (msg values) recorded for the given trace ID.
func logEvents(t *testing.T, buf *syncBuffer, traceID string) []string {
	t.Helper()
	var events []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed log line %q: %v", line, err)
		}
		if rec[logx.KeyTrace] == traceID {
			events = append(events, rec["msg"].(string))
		}
	}
	return events
}

// TestTraceEndToEnd is the PR's acceptance flow: a trace ID supplied at
// submission is echoed on the response, tagged onto the span tree,
// stamped on every lifecycle log line, embedded in the result payload,
// and retrievable from /debug/flight with the six-phase breakdown, the
// log tail and the numguard summary attached.
func TestTraceEndToEnd(t *testing.T) {
	buf := &syncBuffer{}
	s := newTestServer(t, Options{
		QueueDepth: 4, ConcurrentJobs: 1,
		Logger:     logx.New(buf, slog.LevelDebug),
		FlightJobs: 8,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	const traceID = "0123456789abcdef0123456789abcdef"
	req := quickRequest(90)
	req.TraceID = traceID
	sub, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.TraceID != traceID {
		t.Fatalf("submit echoed trace %q, want %q", sub.TraceID, traceID)
	}
	st, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if st.TraceID != traceID {
		t.Errorf("status trace %q, want %q", st.TraceID, traceID)
	}
	jr, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jr.TraceID != traceID {
		t.Errorf("result trace %q, want %q", jr.TraceID, traceID)
	}

	// The flight recorder serves the full entry for this trace.
	resp, err := http.Get(ts.URL + "/debug/flight?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight?trace=: status %d", resp.StatusCode)
	}
	var entry obs.FlightEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	if entry.JobID != sub.ID || entry.State != StateDone {
		t.Fatalf("flight entry: %+v", entry)
	}
	if entry.Trace == nil {
		t.Fatal("flight entry lost the span tree")
	}
	if entry.Trace.TraceID != traceID {
		t.Errorf("span tree tagged %q, want %q", entry.Trace.TraceID, traceID)
	}
	phases := map[string]bool{}
	for _, sp := range entry.Trace.Spans {
		phases[sp.Name] = true
	}
	for _, p := range []string{"assemble", "stamp", "order", "factor", "transient", "moments"} {
		if !phases[p] {
			t.Errorf("flight span tree missing phase %q (have %v)", p, entry.Trace.Spans)
		}
	}
	if entry.Guard == nil {
		t.Error("flight entry missing the numguard summary")
	}
	if len(entry.Log) == 0 {
		t.Error("flight entry missing the log tail")
	}

	// Every lifecycle event carries the trace; phase lines cover the
	// pipeline.
	events := logEvents(t, buf, traceID)
	for _, want := range []string{"job.enqueue", "job.start", "job.phase", "job.done"} {
		found := false
		for _, e := range events {
			if e == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s event for trace %s (events: %v)", want, traceID, events)
		}
	}
}

// TestTraceHeaderContract drives the header side of the wire contract:
// X-Opera-Trace-Id on the request fills the trace, and the server
// echoes it on the response — including 429 rejections, where the body
// carries it too.
func TestTraceHeaderContract(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 1, ConcurrentJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "ffeeddccbbaa99887766554433221100"
	body, _ := json.Marshal(quickRequest(91))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set(TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if got := resp.Header.Get(TraceIDHeader); got != traceID {
		t.Errorf("response header trace %q, want %q", got, traceID)
	}
	if sub.TraceID != traceID {
		t.Errorf("response body trace %q, want %q", sub.TraceID, traceID)
	}

	// Malformed IDs are rejected at validation.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req2.Header.Set(TraceIDHeader, "not-hex!")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed trace id: status %d, want 400", resp2.StatusCode)
	}

	// Fill the queue, then assert a 429 still carries the trace. The
	// first slow job must be claimed by the single worker before the
	// second can occupy the queue's only slot.
	running, err := s.Submit(slowRequest(92))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	if _, err := s.Submit(slowRequest(93)); err != nil {
		t.Fatal(err)
	}
	const rejectTrace = "00112233445566778899aabbccddeeff"
	rejBody, _ := json.Marshal(slowRequest(94))
	req3, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(rejBody))
	req3.Header.Set(TraceIDHeader, rejectTrace)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp3.StatusCode)
	}
	if got := resp3.Header.Get(TraceIDHeader); got != rejectTrace {
		t.Errorf("429 header trace %q, want %q", got, rejectTrace)
	}
	var he struct {
		Trace string `json:"trace_id"`
	}
	json.NewDecoder(resp3.Body).Decode(&he)
	if he.Trace != rejectTrace {
		t.Errorf("429 body trace %q, want %q", he.Trace, rejectTrace)
	}
}

// waitState polls until the job reaches the given state (terminal
// states are reached via Wait in other tests; this is for observing
// intermediate states like running).
func waitState(t *testing.T, s *Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, state)
}

// TestClientRetry429 exercises the client's queue-full retry loop
// against a fake server: two 429s, then success, with each retry
// logged and the Retry-After header honored.
func TestClientRetry429(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			w.Header().Set(TraceIDHeader, "aaaabbbbccccddddeeeeffff00001111")
			w.Header().Set("Retry-After", "0") // fall back to the client's own backoff
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(httpError{Error: "queue full", Kind: "queue_full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(SubmitResponse{ID: "job-000001", State: StateQueued,
			TraceID: "aaaabbbbccccddddeeeeffff00001111"})
	}))
	defer ts.Close()

	buf := &syncBuffer{}
	c := NewClient(ts.URL)
	c.Logger = logx.New(buf, slog.LevelDebug)
	sub, err := c.Submit(context.Background(), quickRequest(95))
	if err != nil {
		t.Fatalf("submit after retries: %v", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if sub.ID != "job-000001" {
		t.Errorf("unexpected response: %+v", sub)
	}
	if !strings.Contains(buf.String(), "client.retry") {
		t.Error("retries were not logged")
	}

	// Retries are bounded: a server that never admits surfaces the 429.
	mu.Lock()
	attempts = -1000
	mu.Unlock()
	c2 := NewClient(ts.URL)
	c2.MaxRetries = 1
	var ae *APIError
	if _, err := c2.Submit(context.Background(), quickRequest(95)); !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Errorf("bounded retries: %v, want APIError 429", err)
	}
	if ae.TraceID == "" {
		t.Error("APIError lost the rejection's trace ID")
	}

	// The submission context bounds the whole loop, including waits.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c3 := NewClient(ts.URL)
	c3.MaxRetries = 100
	if _, err := c3.Submit(ctx, quickRequest(95)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("context-bounded retry: %v, want deadline exceeded", err)
	}
}

// TestJournalReplayPriorityAndTrace simulates a crash with in-flight
// jobs of both priorities and asserts the replay re-enqueues them with
// their original priorities (interactive drains before batch) and
// trace IDs intact.
func TestJournalReplayPriorityAndTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Journal three unfinished jobs as a crashed process would leave
	// them: batch first in submission order, interactive after.
	mk := func(seed int64, priority, trace string) Request {
		r := quickRequest(seed)
		r.Priority = priority
		r.TraceID = trace
		r.NoCache = true
		r.Normalize()
		return r
	}
	reqs := map[string]Request{
		"job-000001": mk(101, PriorityBatch, "10000000000000000000000000000001"),
		"job-000002": mk(102, PriorityInteractive, "20000000000000000000000000000002"),
		"job-000003": mk(103, PriorityBatch, "30000000000000000000000000000003"),
	}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		r := reqs[id]
		j.record(journalRecord{Event: journalSubmit, ID: id, Key: r.Key(), Req: &r})
	}
	j.close()

	s := newTestServer(t, Options{QueueDepth: 8, ConcurrentJobs: 1, JournalPath: path})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var finished []time.Time
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("%s: %s (%s)", id, st.State, st.Error)
		}
		if want := reqs[id].TraceID; st.TraceID != want {
			t.Errorf("%s trace %q did not survive replay (want %q)", id, st.TraceID, want)
		}
		s.mu.Lock()
		finished = append(finished, s.jobs[id].finished)
		s.mu.Unlock()
	}
	// The interactive replay (job 2) must have been claimed before the
	// batch jobs despite its later submission.
	if !finished[1].Before(finished[0]) || !finished[1].Before(finished[2]) {
		t.Errorf("interactive replay did not run first: finished times %v", finished)
	}
}

// TestFlightRingBoundedService soaks the service-level flight recorder
// past its capacity and asserts every view stays hard-bounded.
func TestFlightRingBoundedService(t *testing.T) {
	const k = 4
	s := newTestServer(t, Options{QueueDepth: 8, ConcurrentJobs: 1, FlightJobs: k})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Mix cached replays (same request) and fresh solves.
	for i := 0; i < 3*k; i++ {
		sub, err := s.Submit(quickRequest(int64(110 + i%2)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
	}
	d := s.Flight().Snapshot()
	if len(d.Recent) > k || len(d.Slowest) > k || len(d.Failed) > k {
		t.Errorf("flight views exceed k=%d: recent=%d slowest=%d failed=%d",
			k, len(d.Recent), len(d.Slowest), len(d.Failed))
	}
	if len(d.Recent) != k {
		t.Errorf("recent view not full: %d, want %d", len(d.Recent), k)
	}
	for _, e := range d.Slowest {
		if e.Cached {
			t.Error("cache hits must not enter the slowest view")
		}
	}
}

// TestDisabledTelemetryAllocs guards the disabled fast path: with no
// logger and no flight recorder, the per-job telemetry hooks allocate
// nothing.
func TestDisabledTelemetryAllocs(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1})
	j := &job{
		id: "job-000001", traceID: "00000000000000000000000000000000",
		req:       quickRequest(1),
		submitted: time.Now(), started: time.Now(), finished: time.Now(),
	}
	if got := testing.AllocsPerRun(100, func() {
		s.recordTerminal(j, StateDone, nil, false)
	}); got != 0 {
		t.Errorf("disabled recordTerminal allocates %.1f/op, want 0", got)
	}
}

// BenchmarkServiceTelemetry measures the per-job cost of the telemetry
// layer by running the same workload with it off and fully on.
func BenchmarkServiceTelemetry(b *testing.B) {
	run := func(b *testing.B, opts Options) {
		opts.Registry = obs.NewRegistry()
		s, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := quickRequest(int64(i % 4))
			req.NoCache = true
			sub, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Wait(ctx, sub.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, Options{QueueDepth: 4, ConcurrentJobs: 1})
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, Options{
			QueueDepth: 4, ConcurrentJobs: 1,
			Logger:     logx.New(discard{}, slog.LevelInfo),
			FlightJobs: 32,
		})
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestGuardEscalationsCounter asserts the SLO escalation counter and
// the GuardSummary escalation count stay wired through a healthy solve
// (zero escalations, counter present).
func TestGuardEscalationsCounter(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1, Registry: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := s.Submit(quickRequest(120))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"service.slo_escalations_total",
		"service.slo_deadline_misses_total",
		"service.slo_cancels_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("missing SLO counter %s", name)
		}
	}
	for _, name := range []string{
		"service.queue_wait_ms.interactive",
		"service.solve_ms.interactive",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("SLO histogram %s missing or empty", name)
		}
	}
}

// TestDeadlineMissMetric asserts a per-job timeout lands in the
// deadline-miss counter and produces a job.deadline event.
func TestDeadlineMissMetric(t *testing.T) {
	reg := obs.NewRegistry()
	buf := &syncBuffer{}
	s := newTestServer(t, Options{
		QueueDepth: 4, ConcurrentJobs: 1, Registry: reg,
		Logger: logx.New(buf, slog.LevelDebug), FlightJobs: 4,
	})
	req := slowRequest(130)
	req.TimeoutMS = 50
	sub, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("timed-out job: %s (%s)", st.State, st.Error)
	}
	if got := reg.Snapshot().Counters["service.slo_deadline_misses_total"]; got != 1 {
		t.Errorf("deadline misses = %d, want 1", got)
	}
	events := logEvents(t, buf, sub.TraceID)
	found := false
	for _, e := range events {
		if e == "job.deadline" {
			found = true
		}
	}
	if !found {
		t.Errorf("no job.deadline event (events: %v)", events)
	}
	// The failed/canceled job is retained in the flight recorder.
	if _, ok := s.Flight().Find(sub.TraceID); !ok {
		t.Error("canceled job missing from the flight recorder")
	}
}

// TestQueuedCancelRecordsBeforeRelease: a waiter that Cancel releases
// from a queued job must already find the job's flight entry, because
// terminal telemetry is written before done closes.
func TestQueuedCancelRecordsBeforeRelease(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, ConcurrentJobs: 1, FlightJobs: 4})
	running, err := s.Submit(slowRequest(140))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(running.ID)
	queued, err := s.Submit(slowRequest(141))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waited := make(chan error, 1)
	go func() {
		st, err := s.Wait(ctx, queued.ID)
		_, recorded := s.Flight().Find(queued.TraceID)
		switch {
		case err != nil:
			waited <- err
		case st.State != StateCanceled:
			waited <- fmt.Errorf("queued job state %s, want canceled", st.State)
		case !recorded:
			waited <- errors.New("Wait returned before the flight entry was recorded")
		default:
			waited <- nil
		}
	}()
	// Not needed for correctness: a waiter already parked in Wait when
	// Cancel closes done is the one that can outrun recordTerminal.
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Error(err)
	}
}

var _ = fmt.Sprintf // keep fmt imported for debug edits

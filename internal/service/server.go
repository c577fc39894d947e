package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opera/internal/cancel"
	"opera/internal/checkpoint"
	"opera/internal/core"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/montecarlo"
	"opera/internal/netlist"
	"opera/internal/numguard"
	"opera/internal/obs"
	"opera/internal/obs/logx"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/service/inject"
)

// Admission and lifecycle errors (the HTTP layer maps these to status
// codes: 429, 503, 404, 409).
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("service: server draining")
	// ErrUnknownJob reports a job id the server has never seen (404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished reports a result fetch on an unfinished job (409).
	ErrNotFinished = errors.New("service: job not finished")
)

// Cancellation causes. Every path that cancels a job context does so
// with a discriminated cause, read back via context.Cause: an expired
// deadline yields context.DeadlineExceeded, a drain yields
// errCauseDrain, an explicit cancel errCauseUser, and a stall kill a
// *StallError. The cause decides a canceled MC job's fate — deadline
// and drain may return a degraded partial result; user cancels and
// stalls never do.
var (
	errCauseUser  = errors.New("service: canceled by request")
	errCauseDrain = errors.New("service: canceled by shutdown")
	// errInjectedCrash is the chaos harness's simulated process death
	// between a checkpoint's tmp write and its rename.
	errInjectedCrash = errors.New("service: injected crash before checkpoint rename")
)

// ckptKindMC tags Monte Carlo snapshots in the checkpoint store.
const ckptKindMC = "mc"

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Options configures a Server.
type Options struct {
	// QueueDepth bounds how many jobs may wait (both priorities
	// together); submissions beyond it are rejected with ErrQueueFull.
	// Default 64.
	QueueDepth int
	// ConcurrentJobs is the number of jobs executing at once. Default
	// 2 (each job parallelizes internally via SolverWorkers).
	ConcurrentJobs int
	// SolverWorkers caps each job's internal worker pools (results are
	// identical for any value); 0 = GOMAXPROCS split across the
	// concurrent jobs.
	SolverWorkers int
	// CacheBytes is the result cache budget; <= 0 disables caching.
	// Default 256 MiB.
	CacheBytes int64
	// Limits bounds uploaded netlists and generated grids. The zero
	// value means netlist.DefaultLimits.
	Limits netlist.Limits
	// DefaultTimeout bounds jobs that do not carry their own
	// TimeoutMS; 0 means no deadline.
	DefaultTimeout time.Duration
	// JournalPath, when non-empty, appends a JSON journal of
	// submissions and completions; on construction, submitted-but-
	// unfinished jobs from a previous process are re-enqueued.
	JournalPath string
	// Registry receives the service metrics (queue depth, job counts,
	// cache counters). A nil Registry allocates a private one.
	Registry *obs.Registry
	// CollectTrace attaches each job's obs span tree and metrics
	// snapshot to its result payload.
	CollectTrace bool
	// Logger receives structured job-lifecycle events (the logx
	// schema: the message is the event name, attributes use the
	// logx.Key* names, every line carries the job and trace IDs). Nil
	// disables lifecycle logging entirely — the disabled path adds no
	// allocations per job.
	Logger *slog.Logger
	// FlightJobs sizes the flight recorder: the last K finished jobs,
	// the K slowest and the last K failed are retained with their span
	// trees, log tails and numguard summaries, served at /debug/flight.
	// 0 disables the recorder (and the per-job tracing it implies).
	FlightJobs int
	// CheckpointDir, when non-empty, persists periodic Monte Carlo
	// snapshots (atomic write-tmp-then-rename, keyed by the job's
	// content key). A job whose key has a snapshot resumes from it —
	// bit-identical to an uninterrupted run at any worker count — and
	// the snapshot is deleted only on full, non-degraded success.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in samples (rounded up to
	// the solver's chunk grid). Default 64 when CheckpointDir is set.
	CheckpointEvery int
	// StallTimeout, when positive, arms a per-job watchdog: a running
	// job whose progress counter (marked at every step/sample/basis
	// boundary) does not move for this long is canceled with a
	// *StallError and fails. 0 disables the watchdog.
	StallTimeout time.Duration
	// SLOProfileAfter, when positive, arms an evidence collector: a job
	// still running after this long gets a heap snapshot and a short
	// CPU profile of the live process captured into a bounded ring,
	// keyed by the job's trace ID and served at /debug/profiles. The
	// capture fires while the slow job is still executing, so the CPU
	// window actually samples the offending solve. 0 disables capture.
	SLOProfileAfter time.Duration
	// ProfileRingSize bounds the capture ring (a cpu+heap pair is two
	// entries). Default 16 when SLOProfileAfter is set.
	ProfileRingSize int
	// Peers lists the other shards' base URLs for cluster peer mode:
	// on a local cache miss the shard peeks each peer's /cache/{key}
	// (bounded by PeekTimeout, miss-tolerant) before solving, and on
	// drain it hands queued jobs to their ring owners instead of merely
	// finishing them. Empty disables peer mode. SetPeers can change the
	// list later.
	Peers []string
	// SelfURL is this shard's own base URL; it is filtered out of
	// Peers so a shared symmetric peer list never makes a shard peek
	// itself.
	SelfURL string
	// PeekTimeout bounds one peer cache lookup on the submission path.
	// 0 means 150ms.
	PeekTimeout time.Duration
	// SpanRingBytes budgets the span-export ring served at
	// /debug/spans/{trace}: recent jobs' span fragments (job root, queue
	// wait, peer peeks, the solver's phase tree) retained per trace ID
	// with drop-oldest eviction, the shard-side half of the cluster's
	// trace stitching. <= 0 disables retention entirely (the span paths
	// then cost one nil check).
	SpanRingBytes int64
}

func (o Options) withDefaults() Options {
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.ConcurrentJobs == 0 {
		o.ConcurrentJobs = 2
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.Limits == (netlist.Limits{}) {
		o.Limits = netlist.DefaultLimits()
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.SolverWorkers == 0 {
		// Split the machine across concurrent jobs so two jobs do not
		// oversubscribe cores; at least one worker each.
		o.SolverWorkers = runtime.GOMAXPROCS(0) / o.ConcurrentJobs
		if o.SolverWorkers < 1 {
			o.SolverWorkers = 1
		}
	}
	if o.CheckpointDir != "" && o.CheckpointEvery == 0 {
		o.CheckpointEvery = 64
	}
	if o.SLOProfileAfter > 0 && o.ProfileRingSize == 0 {
		o.ProfileRingSize = 16
	}
	return o
}

// job is the server-side state of one submission.
type job struct {
	id       string
	key      string
	traceID  string
	req      Request
	state    string
	cached   bool
	degraded bool
	// handedOff marks a queued job a draining shard sent to peer (a
	// ring member's URL) instead of solving; the local record is
	// terminal StateCanceled with ErrHandedOff.
	handedOff bool
	peer      string
	result    []byte
	err       error
	diag      *numguard.Diagnosis
	ctx       context.Context
	// cancelCause cancels ctx with a discriminated cause (user cancel,
	// stall, drain); stopTimer releases the deadline timer when the
	// request carried one.
	cancelCause context.CancelCauseFunc
	stopTimer   context.CancelFunc
	// progress is marked by every solve loop the job runs; the stall
	// watchdog polls it to tell slow from hung.
	progress *obs.Progress

	// Telemetry (all nil/zero when disabled — the hot path guards on
	// log/tracer nil checks only).
	log         *slog.Logger  // lifecycle logger with job+trace attrs
	tail        *logx.Tail    // per-job log tail for the flight entry
	tracer      *obs.Tracer   // per-job span tree (flight or CollectTrace)
	guard       *GuardSummary // numguard view of a successful solve
	health      *NumHealth    // numerical-health record of the solve
	escalations int           // ladder transitions during the solve

	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

// event logs one lifecycle event. Call sites must guard with
// `j.log != nil` before building attributes so the disabled path
// allocates nothing.
func (j *job) event(msg string, attrs ...slog.Attr) {
	j.log.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
}

// SubmitResponse is the wire reply to a submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
	// TraceID identifies this submission in the server's telemetry:
	// the caller's ID when one was supplied, a freshly minted one
	// otherwise. Set on every outcome, including rejections, so a
	// retried request can be joined to its eventual run. A coalesced
	// submission gets the in-flight job's ID — the trace that will
	// actually run.
	TraceID string `json:"trace_id,omitempty"`
	// Cached marks a submission served entirely from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a submission attached to an in-flight job with
	// the same content key (one solve will serve both).
	Coalesced bool `json:"coalesced,omitempty"`
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	TraceID  string `json:"trace_id,omitempty"`
	State    string `json:"state"`
	Cached   bool   `json:"cached,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
	// HandedOff marks a job a draining shard sent to Peer (a ring
	// member's base URL); resubmitting the same request there — or
	// anywhere on the ring — joins the peer's run via cache/coalesce.
	HandedOff bool                `json:"handed_off,omitempty"`
	Peer      string              `json:"peer,omitempty"`
	Diagnosis *numguard.Diagnosis `json:"diagnosis,omitempty"`
	QueuedMS  float64             `json:"queued_ms,omitempty"`
	RunMS     float64             `json:"run_ms,omitempty"`
}

// Server is the analysis service: a bounded two-priority job queue, a
// fixed worker pool, the content-addressed result cache, and the
// drain-aware lifecycle. Construct with New, serve over HTTP with
// Handler, stop with Shutdown.
type Server struct {
	opts   Options
	reg    *obs.Registry
	cache  *Cache
	log    *slog.Logger
	flight *obs.FlightRecorder
	ckpts  *checkpoint.Store // nil without CheckpointDir
	// profiles holds the SLO-breach pprof captures (nil when
	// SLOProfileAfter is unset); served at /debug/profiles.
	profiles *obs.ProfileRing
	// peers is the cluster peer view (nil when peer mode is off);
	// peerHTTP is the shared transport for peeks and handoffs.
	peers    peersPtr
	peerHTTP *http.Client
	// spans retains recent jobs' span-export fragments per trace ID
	// (nil when SpanRingBytes is unset); shardName holds this shard's
	// cluster self-name ("s0", ...) derived by SetPeers, empty when
	// standalone.
	spans     *obs.SpanRing
	shardName atomic.Pointer[string]

	mu          sync.Mutex
	cond        *sync.Cond
	interactive []*job
	batch       []*job
	jobs        map[string]*job
	inflight    map[string]*job // content key → queued/running job
	seq         int64
	draining    bool
	// handingOff parks idle workers during the drain's handoff pass,
	// so a job requeued by a failed handoff still has a worker to
	// solve it (see Shutdown).
	handingOff bool

	workers  sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc
	journal  *journal

	mSubmitted, mCompleted, mFailed *obs.Counter
	mCanceled, mRejected, mPanics   *obs.Counter
	mCoalesced, mSolves             *obs.Counter
	mQueueDepth, mRunning           *obs.Gauge
	mJobMS                          *obs.Histogram

	// SLO instrumentation: the queue-wait vs. solve-time split per
	// priority, deadline-miss/cancel/escalation counters, and the
	// queue-age gauge sampled on a ticker (queueSampler).
	mQueueWaitI, mQueueWaitB *obs.Histogram
	mSolveI, mSolveB         *obs.Histogram
	mDeadlineMiss            *obs.Counter
	mSLOCancels              *obs.Counter
	mSLOEscalations          *obs.Counter
	mSLOProfiles             *obs.Counter
	mQueueAge                *obs.Gauge

	// Fault-tolerance instrumentation: checkpoint writes and their
	// failures, jobs resumed from a snapshot, watchdog kills, and jobs
	// finished degraded under deadline/drain pressure.
	mCheckpoints  *obs.Counter
	mCkptFailures *obs.Counter
	mResumes      *obs.Counter
	mStalls       *obs.Counter
	mDegraded     *obs.Counter

	// Cluster peer-mode instrumentation: cross-shard cache peeks
	// (hit/miss/error), results this shard served to peers' peeks, and
	// drain handoffs with their failures.
	mPeekHits     *obs.Counter
	mPeekMisses   *obs.Counter
	mPeekErrors   *obs.Counter
	mPeerServes   *obs.Counter
	mHandoffs     *obs.Counter
	mHandoffFails *obs.Counter
}

// New builds and starts a server: the worker pool is live and, when a
// journal is configured, unfinished jobs from a previous process are
// re-enqueued before the first submission is accepted.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ctx, stopCause := context.WithCancelCause(context.Background())
	stop := func() { stopCause(errCauseDrain) }
	s := &Server{
		opts:        opts,
		reg:         opts.Registry,
		cache:       NewCache(opts.CacheBytes, opts.Registry),
		log:         opts.Logger,
		flight:      obs.NewFlightRecorder(opts.FlightJobs),
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		baseCtx:     ctx,
		baseStop:    stop,
		mSubmitted:  opts.Registry.Counter("service.jobs_submitted_total"),
		mCompleted:  opts.Registry.Counter("service.jobs_completed_total"),
		mFailed:     opts.Registry.Counter("service.jobs_failed_total"),
		mCanceled:   opts.Registry.Counter("service.jobs_canceled_total"),
		mRejected:   opts.Registry.Counter("service.jobs_rejected_total"),
		mPanics:     opts.Registry.Counter("service.job_panics_total"),
		mCoalesced:  opts.Registry.Counter("service.jobs_coalesced_total"),
		mSolves:     opts.Registry.Counter("service.solves_total"),
		spans:       obs.NewSpanRing(opts.SpanRingBytes),
		mQueueDepth: opts.Registry.Gauge("service.queue_depth"),
		mRunning:    opts.Registry.Gauge("service.jobs_running"),
		mJobMS:      opts.Registry.Histogram("service.job_ms", obs.MSBuckets),

		mQueueWaitI:     opts.Registry.Histogram("service.queue_wait_ms.interactive", obs.MSBuckets),
		mQueueWaitB:     opts.Registry.Histogram("service.queue_wait_ms.batch", obs.MSBuckets),
		mSolveI:         opts.Registry.Histogram("service.solve_ms.interactive", obs.MSBuckets),
		mSolveB:         opts.Registry.Histogram("service.solve_ms.batch", obs.MSBuckets),
		mDeadlineMiss:   opts.Registry.Counter("service.slo_deadline_misses_total"),
		mSLOCancels:     opts.Registry.Counter("service.slo_cancels_total"),
		mSLOEscalations: opts.Registry.Counter("service.slo_escalations_total"),
		mSLOProfiles:    opts.Registry.Counter("service.slo_profiles_total"),
		mQueueAge:       opts.Registry.Gauge("service.queue_age_ms"),

		mCheckpoints:  opts.Registry.Counter("service.checkpoints_total"),
		mCkptFailures: opts.Registry.Counter("service.checkpoint_failures_total"),
		mResumes:      opts.Registry.Counter("service.resumes_total"),
		mStalls:       opts.Registry.Counter("service.stalls_total"),
		mDegraded:     opts.Registry.Counter("service.jobs_degraded_total"),

		mPeekHits:     opts.Registry.Counter("service.peer_peek_hits_total"),
		mPeekMisses:   opts.Registry.Counter("service.peer_peek_misses_total"),
		mPeekErrors:   opts.Registry.Counter("service.peer_peek_errors_total"),
		mPeerServes:   opts.Registry.Counter("service.cache_peer_serves_total"),
		mHandoffs:     opts.Registry.Counter("service.handoff_jobs_total"),
		mHandoffFails: opts.Registry.Counter("service.handoff_failures_total"),
		peerHTTP:      &http.Client{},
	}
	s.SetPeers(opts.SelfURL, opts.Peers)
	s.cond = sync.NewCond(&s.mu)
	if opts.SLOProfileAfter > 0 {
		s.profiles = obs.NewProfileRing(opts.ProfileRingSize)
	}
	if opts.CheckpointDir != "" {
		var err error
		s.ckpts, err = checkpoint.Open(opts.CheckpointDir)
		if err != nil {
			stop()
			return nil, err
		}
		// The chaos harness's crash point: an injected error here
		// aborts the snapshot after its tmp write, leaving a torn tmp
		// file — exactly what a process death at that instant leaves.
		s.ckpts.BeforeRename = func(string) error {
			if inject.CrashBeforeCheckpoint() {
				return errInjectedCrash
			}
			return nil
		}
	}
	var pending []journalRecord
	if opts.JournalPath != "" {
		var err error
		s.journal, pending, err = openJournal(opts.JournalPath)
		if err != nil {
			stop()
			return nil, err
		}
		if s.journal.warn != nil && s.log != nil {
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "journal.recovered",
				slog.String(logx.KeyError, s.journal.warn.Error()))
		}
	}
	// Recover the queue before workers start so replayed jobs keep
	// their submission order.
	for _, rec := range pending {
		if rec.Req == nil {
			continue
		}
		if _, err := s.enqueueLocked(*rec.Req, rec.ID); err != nil {
			// A journal full of more jobs than the queue holds drops
			// the tail; the journal still records their submission.
			break
		}
	}
	for w := 0; w < opts.ConcurrentJobs; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.workerLoop()
		}()
	}
	go s.queueSampler()
	return s, nil
}

// queueSampler refreshes the queue depth and oldest-queued-age gauges
// on a fixed tick, so /metrics shows wait pressure even between
// submissions. It exits when the base context is canceled (Shutdown).
func (s *Server) queueSampler() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.mu.Lock()
			depth := len(s.interactive) + len(s.batch)
			age := 0.0
			for _, q := range [][]*job{s.interactive, s.batch} {
				for _, j := range q {
					if a := float64(now.Sub(j.submitted)) / float64(time.Millisecond); a > age {
						age = a
					}
				}
			}
			s.mu.Unlock()
			s.mQueueDepth.Set(float64(depth))
			s.mQueueAge.Set(age)
		}
	}
}

// Flight exposes the flight recorder (nil when disabled) — what the
// HTTP layer serves at /debug/flight.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Registry exposes the service metrics registry (for /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Ready reports whether the server accepts submissions (false while
// draining or after shutdown) — the /readyz signal.
func (s *Server) Ready() bool {
	ok, _, _ := s.Readiness()
	return ok
}

// Readiness is the full /readyz signal: whether a submission would be
// admitted right now, a machine-readable reason when it would not
// ("draining", "saturated"), and the current queue depth. Saturation
// is advisory — a saturated server still accepts cache hits and
// coalesced submissions — but it tells a load balancer to prefer
// another replica before the 429s start.
func (s *Server) Readiness() (ok bool, reason string, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth = len(s.interactive) + len(s.batch)
	if s.draining {
		return false, "draining", depth
	}
	if depth >= s.opts.QueueDepth {
		return false, "saturated", depth
	}
	return true, "", depth
}

// Submit validates, normalizes and admits one request. The fast paths
// never touch the queue: a content-key hit on the result cache returns
// a completed job immediately, and a key matching an in-flight job
// coalesces onto it. In peer mode a local miss additionally peeks the
// ring peers' caches (bounded, miss-tolerant) before committing to a
// solve. Otherwise the job is enqueued under its priority, or rejected
// with ErrQueueFull / ErrDraining.
func (s *Server) Submit(req Request) (SubmitResponse, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return SubmitResponse{}, err
	}
	if err := s.checkLimits(req); err != nil {
		return SubmitResponse{}, err
	}
	// Every outcome — admitted, coalesced, cached, rejected — carries a
	// trace ID: the caller's (validated above) or a freshly minted one.
	if req.TraceID == "" {
		req.TraceID = string(obs.NewTraceID())
	}
	key := req.Key()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return SubmitResponse{TraceID: req.TraceID}, ErrDraining
	}
	s.mSubmitted.Inc()
	if resp, ok := s.fastPathLocked(req, key); ok {
		s.mu.Unlock()
		return resp, nil
	}
	if !req.NoCache && s.peers.Load() != nil {
		// Local miss, no in-flight twin: peek the ring before paying
		// for a solve. The peek runs outside the server mutex (it
		// blocks for up to PeekTimeout per peer); on a hit the peer's
		// bytes are installed locally and the fast path re-run, so the
		// response is a normal cache hit serving the peer's bytes
		// verbatim. The world may have changed while unlocked — drain,
		// a racing identical submission — so everything is re-checked.
		s.mu.Unlock()
		peekStart := time.Now()
		data, peer := s.peekPeers(key)
		s.recordPeekSpan(req.TraceID, peekStart, peer, data != nil)
		if data != nil {
			s.cache.Put(key, data)
			if s.log != nil {
				s.log.LogAttrs(context.Background(), slog.LevelInfo, "job.peer_hit",
					slog.String(logx.KeyTrace, req.TraceID),
					slog.String(logx.KeyKey, key),
					slog.String(logx.KeyPeer, peer))
			}
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return SubmitResponse{TraceID: req.TraceID}, ErrDraining
		}
		if resp, ok := s.fastPathLocked(req, key); ok {
			s.mu.Unlock()
			return resp, nil
		}
	}
	j, err := s.enqueueLocked(req, "")
	if err != nil {
		if s.log != nil {
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "job.reject",
				slog.String(logx.KeyTrace, req.TraceID),
				slog.String(logx.KeyError, err.Error()),
				slog.Int(logx.KeyDepth, len(s.interactive)+len(s.batch)))
		}
		s.mu.Unlock()
		return SubmitResponse{TraceID: req.TraceID}, err
	}
	if s.journal != nil {
		s.journal.record(journalRecord{Event: journalSubmit, ID: j.id, Key: key, Req: &j.req})
	}
	s.mu.Unlock()
	return SubmitResponse{ID: j.id, Key: key, State: StateQueued, TraceID: j.traceID}, nil
}

// fastPathLocked serves a submission without a solve when possible: a
// result-cache hit returns a completed job, an in-flight twin
// coalesces. Requires s.mu; reports whether it produced a response.
func (s *Server) fastPathLocked(req Request, key string) (SubmitResponse, bool) {
	if req.NoCache {
		return SubmitResponse{}, false
	}
	if data, ok := s.cache.Get(key); ok {
		j := s.newJobLocked(req, key, "")
		j.state = StateDone
		j.cached = true
		j.result = data
		j.finished = j.submitted
		close(j.done)
		if j.log != nil {
			j.event("job.cache_hit", slog.String(logx.KeyKey, key))
		}
		s.flight.Record(obs.FlightEntry{
			TraceID: j.traceID, JobID: j.id, State: StateDone,
			Shard: s.ShardName(), ClusterJobID: s.clusterJobID(j.id), Key: key,
			Analysis: req.Analysis, Priority: req.Priority,
			Cached: true, Submitted: j.submitted, Log: j.tail.Lines(),
		})
		s.recordCachedSpans(j)
		return SubmitResponse{ID: j.id, Key: key, State: StateDone, Cached: true, TraceID: j.traceID}, true
	}
	if prior, ok := s.inflight[key]; ok {
		s.mCoalesced.Inc()
		if s.log != nil {
			s.log.LogAttrs(context.Background(), slog.LevelInfo, "job.coalesce",
				slog.String(logx.KeyTrace, req.TraceID),
				slog.String(logx.KeyOnto, prior.id))
		}
		return SubmitResponse{ID: prior.id, Key: key, State: prior.state, Coalesced: true, TraceID: prior.traceID}, true
	}
	return SubmitResponse{}, false
}

// checkLimits rejects oversized inputs at admission, before they cost
// a queue slot: inline netlist bytes and generator-spec node counts
// are both known up front (the full netlist limits — element counts,
// name lengths — are enforced again by ReadLimited at execution).
func (s *Server) checkLimits(req Request) error {
	if req.Netlist != "" && s.opts.Limits.MaxBytes > 0 {
		if n := int64(len(req.Netlist)); n > s.opts.Limits.MaxBytes {
			return &netlist.LimitError{What: "bytes", Limit: s.opts.Limits.MaxBytes, Got: n}
		}
	}
	if req.Grid != nil && s.opts.Limits.MaxNodes > 0 {
		if n := req.Grid.NumNodes(); n > s.opts.Limits.MaxNodes {
			return &netlist.LimitError{What: "nodes", Limit: int64(s.opts.Limits.MaxNodes), Got: int64(n)}
		}
	}
	return nil
}

// newJobLocked allocates a job record (id auto-assigned when empty)
// and registers it in the job table.
func (s *Server) newJobLocked(req Request, key, id string) *job {
	if id == "" {
		s.seq++
		id = fmt.Sprintf("job-%06d", s.seq)
	} else if n := parseJobSeq(id); n > s.seq {
		s.seq = n
	}
	if req.TraceID == "" {
		// Submit mints for live submissions; this covers journal
		// replays recorded before trace propagation existed.
		req.TraceID = string(obs.NewTraceID())
	}
	j := &job{
		id: id, key: key, traceID: req.TraceID, req: req,
		state:     StateQueued,
		submitted: time.Now(),
		progress:  &obs.Progress{},
		done:      make(chan struct{}),
	}
	// Per-job logger: every line carries the job and trace IDs; with
	// the flight recorder on, lines are teed into the job's bounded
	// tail so the flight entry ships its own log.
	if s.log != nil || s.flight != nil {
		h := logx.Nop().Handler()
		if s.log != nil {
			h = s.log.Handler()
		}
		if s.flight != nil {
			j.tail = logx.NewTail(tailLines)
			h = logx.Tee(h, j.tail.Handler(slog.LevelDebug))
		}
		j.log = slog.New(h).With(
			slog.String(logx.KeyJob, j.id),
			slog.String(logx.KeyTrace, j.traceID))
	}
	s.jobs[id] = j
	return j
}

// tailLines bounds each job's retained log tail in the flight recorder.
const tailLines = 64

// enqueueLocked admits a job to its priority queue.
func (s *Server) enqueueLocked(req Request, id string) (*job, error) {
	if len(s.interactive)+len(s.batch) >= s.opts.QueueDepth {
		s.mRejected.Inc()
		return nil, ErrQueueFull
	}
	key := req.Key()
	j := s.newJobLocked(req, key, id)
	cctx, cause := context.WithCancelCause(s.baseCtx)
	j.cancelCause = cause
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		j.ctx, j.stopTimer = context.WithTimeout(cctx, timeout)
	} else {
		j.ctx = cctx
	}
	if req.Priority == PriorityBatch {
		s.batch = append(s.batch, j)
	} else {
		s.interactive = append(s.interactive, j)
	}
	s.inflight[key] = j
	s.mQueueDepth.Set(float64(len(s.interactive) + len(s.batch)))
	if j.log != nil {
		j.event("job.enqueue",
			slog.String(logx.KeyKey, key),
			slog.String(logx.KeyPriority, j.req.Priority),
			slog.String(logx.KeyAnalysis, j.req.Analysis),
			slog.Int(logx.KeyDepth, len(s.interactive)+len(s.batch)))
	}
	s.cond.Signal()
	return j, nil
}

func parseJobSeq(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// workerLoop claims jobs (interactive before batch) until shutdown.
func (s *Server) workerLoop() {
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks until a job is available or the server drains empty.
func (s *Server) nextJob() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.interactive) > 0 {
			j := s.interactive[0]
			s.interactive = s.interactive[1:]
			return s.claimLocked(j)
		}
		if len(s.batch) > 0 {
			j := s.batch[0]
			s.batch = s.batch[1:]
			return s.claimLocked(j)
		}
		if s.draining && !s.handingOff {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *Server) claimLocked(j *job) *job {
	s.mQueueDepth.Set(float64(len(s.interactive) + len(s.batch)))
	j.state = StateRunning
	j.started = time.Now()
	wait := float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	if j.req.Priority == PriorityBatch {
		s.mQueueWaitB.Observe(wait)
	} else {
		s.mQueueWaitI.Observe(wait)
	}
	s.mRunning.Set(float64(s.runningLocked() + 1))
	return j
}

func (s *Server) runningLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.state == StateRunning {
			n++
		}
	}
	return n
}

// runJob executes one claimed job with panic isolation: a panicking
// solve surfaces as a failed job (via parallel's panic→error capture),
// never as a daemon crash.
func (s *Server) runJob(j *job) {
	// Per-job tracing is on when results embed traces, the flight
	// recorder retains them, or the span ring exports them for cluster
	// stitching; otherwise the solve runs with a nil tracer (every obs
	// call is then a no-op).
	if s.opts.CollectTrace || s.flight != nil || s.spans != nil {
		j.tracer = obs.New("service.job")
		j.tracer.SetTraceID(obs.TraceID(j.traceID))
	}
	if j.log != nil {
		j.event("job.start",
			slog.String(logx.KeyAnalysis, j.req.Analysis),
			slog.String(logx.KeyPriority, j.req.Priority),
			slog.Float64(logx.KeyQueuedMS, float64(j.started.Sub(j.submitted))/float64(time.Millisecond)))
	}
	if s.opts.StallTimeout > 0 {
		go s.watchJob(j)
	}
	if s.opts.SLOProfileAfter > 0 && s.profiles != nil {
		go s.profileOnBreach(j)
	}
	// One actually-executed solve, successful or not (contrast
	// jobs_completed_total, which counts successful terminations only):
	// the counter the cluster federation sums to assert "N submissions,
	// one solve" — cache hits and coalesced twins never reach here.
	s.mSolves.Inc()
	var result []byte
	err := parallel.ForEach(1, 1, func(_, _ int) error {
		var e error
		result, e = s.execute(j)
		return e
	})
	s.finishJob(j, result, err)
}

// profileOnBreach waits out the job's latency objective and, if the
// job is still running when it expires, captures pprof evidence into
// the profile ring under the job's trace ID. The job keeps running —
// capture is observation, not intervention (contrast watchJob, which
// kills). Runs on its own goroutine; Capture blocks for the CPU
// window, which is why this must not run on the worker.
func (s *Server) profileOnBreach(j *job) {
	t := time.NewTimer(s.opts.SLOProfileAfter)
	defer t.Stop()
	select {
	case <-j.done:
		return // finished inside the objective; nothing to capture
	case <-t.C:
	}
	s.mSLOProfiles.Inc()
	reason := fmt.Sprintf("running > %s", s.opts.SLOProfileAfter)
	if j.log != nil {
		j.event("job.slo_profile", slog.String(logx.KeyReason, reason))
	}
	if err := s.profiles.Capture(j.traceID, reason); err != nil && j.log != nil {
		// ErrCaptureBusy (another breach holds the CPU window) still
		// stored the heap snapshot; anything else lost the capture.
		j.event("job.slo_profile_err", slog.String(logx.KeyError, err.Error()))
	}
}

// Profiles returns the SLO-breach capture ring (nil when disabled).
func (s *Server) Profiles() *obs.ProfileRing { return s.profiles }

// finishJob moves a job to its terminal state and releases waiters.
// Terminal telemetry (log events, flight entry) is emitted after the
// server mutex is released and before done closes, so a waiter never
// sees a terminal job whose records do not exist yet.
func (s *Server) finishJob(j *job, result []byte, err error) {
	// Read the cancellation cause before releasing the job's own
	// context resources — our cleanup cancel would overwrite it.
	cause := context.Cause(j.ctx)
	if j.cancelCause != nil {
		j.cancelCause(nil)
	}
	if j.stopTimer != nil {
		j.stopTimer()
	}
	s.mu.Lock()
	j.finished = time.Now()
	runMS := float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	s.mJobMS.Observe(runMS)
	if j.req.Priority == PriorityBatch {
		s.mSolveB.Observe(runMS)
	} else {
		s.mSolveI.Observe(runMS)
	}
	deadline := false
	var stallErr *StallError
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		s.mCompleted.Inc()
		s.mSLOEscalations.Add(int64(j.escalations))
		if j.degraded {
			// Degraded results are honest but partial: never cached
			// (a full-budget resubmission must actually run), and the
			// checkpoint stays on disk so that run resumes rather than
			// restarts.
			s.mDegraded.Inc()
		} else {
			if !j.req.NoCache {
				s.cache.Put(j.key, result)
			}
			if s.ckpts != nil {
				s.ckpts.Delete(j.key)
			}
		}
	case errors.Is(err, cancel.ErrCanceled) && errors.As(cause, &stallErr):
		// Watchdog kill: the solve hung. Failed, not canceled — the
		// caller asked for a result and the server could not produce
		// one.
		j.state = StateFailed
		j.err = stallErr
		err = stallErr
		s.mFailed.Inc()
	case errors.Is(err, cancel.ErrCanceled):
		j.state = StateCanceled
		j.err = err
		s.mCanceled.Inc()
		s.mSLOCancels.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			deadline = true
			s.mDeadlineMiss.Inc()
		}
	default:
		j.state = StateFailed
		j.err = err
		s.mFailed.Inc()
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			s.mPanics.Inc()
		}
		errors.As(err, &j.diag)
	}
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mRunning.Set(float64(s.runningLocked()))
	if s.journal != nil {
		s.journal.record(journalRecord{Event: journalEnd, ID: j.id, State: j.state})
	}
	state := j.state
	s.mu.Unlock()
	s.recordTerminal(j, state, err, deadline)
	close(j.done)
}

// recordTerminal emits a job's terminal telemetry — the deadline/
// cancel/panic event, the per-phase breakdown derived from the span
// tree, the job.done line, and the flight-recorder entry. It runs
// outside the server mutex, after the job is terminal (no more
// writers touch the job's fields) and before its done channel closes.
func (s *Server) recordTerminal(j *job, state string, err error, deadline bool) {
	if j.log == nil && s.flight == nil && s.spans == nil {
		return
	}
	s.recordJobSpans(j, state)
	if j.log == nil && s.flight == nil {
		return
	}
	queuedEnd := j.started
	if queuedEnd.IsZero() { // canceled while still queued
		queuedEnd = j.finished
	}
	queuedMS := float64(queuedEnd.Sub(j.submitted)) / float64(time.Millisecond)
	runMS := 0.0
	if !j.started.IsZero() {
		runMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	var dump *obs.Dump
	if j.tracer != nil {
		dump = j.tracer.Dump()
	}
	// A stall kill carries the span tree on the error itself, so the
	// structured StallError and the flight entry agree on where the
	// solve was stuck. The job is terminal here — no writer races.
	var se *StallError
	if errors.As(err, &se) {
		se.Trace = dump
	}
	if j.log != nil {
		switch {
		case deadline:
			j.event("job.deadline", slog.Float64(logx.KeyRunMS, runMS))
		case state == StateCanceled:
			j.event("job.cancel", slog.Float64(logx.KeyRunMS, runMS))
		case state == StateFailed:
			var pe *parallel.PanicError
			if errors.As(err, &pe) {
				j.event("job.panic", slog.String(logx.KeyError, pe.Error()))
			}
		}
		if dump != nil {
			// One line per top-level phase of the solve, derived from
			// the span tree at completion.
			for _, sp := range dump.Spans {
				j.event("job.phase",
					slog.String(logx.KeyPhase, sp.Name),
					slog.Float64(logx.KeyMS, sp.DurMS))
			}
		}
		attrs := []slog.Attr{
			slog.String(logx.KeyState, state),
			slog.Float64(logx.KeyQueuedMS, queuedMS),
			slog.Float64(logx.KeyRunMS, runMS),
		}
		if err != nil {
			attrs = append(attrs, slog.String(logx.KeyError, err.Error()))
		}
		j.event("job.done", attrs...)
	}
	if s.flight != nil {
		e := obs.FlightEntry{
			TraceID:      j.traceID,
			JobID:        j.id,
			Shard:        s.ShardName(),
			ClusterJobID: s.clusterJobID(j.id),
			Key:          j.key,
			State:        state,
			Analysis:     j.req.Analysis,
			Priority:     j.req.Priority,
			Degraded:     j.degraded,
			Submitted:    j.submitted,
			QueuedMS:     queuedMS,
			RunMS:        runMS,
			Trace:        dump,
			Log:          j.tail.Lines(),
		}
		if err != nil {
			e.Error = err.Error()
		}
		switch {
		case j.guard != nil:
			e.Guard = j.guard
		case j.diag != nil:
			e.Guard = j.diag
		}
		if j.health != nil {
			e.Health = j.health
		}
		s.flight.Record(e)
	}
}

// execute runs the analysis for one job and encodes the wire result.
func (s *Server) execute(j *job) ([]byte, error) {
	req := j.req
	if inject.PanicPoint() {
		panic("inject: worker panic")
	}
	if inject.StallPoint() {
		// Simulated hang: the worker parks without ever marking
		// progress. Only cancellation — the stall watchdog, a deadline,
		// a drain — releases it, which is exactly what the watchdog
		// exists to guarantee.
		<-j.ctx.Done()
		return nil, cancel.Poll(j.ctx, "inject.stall", -1)
	}
	// The "assemble" phase mirrors the CLI's: netlist parse or grid
	// generation, so the service's span tree carries the same six
	// phases as a local -trace run.
	spA := j.tracer.Start("assemble")
	nl, err := s.buildNetlist(req)
	if err != nil {
		spA.End()
		return nil, err
	}
	spA.SetAttrs(obs.Int("nodes", nl.NumNodes))
	spA.End()
	tr := j.tracer
	ordering, _ := order.ParseMethod(req.Ordering)
	workers := req.Workers
	if workers == 0 {
		workers = s.opts.SolverWorkers
	}
	var jr *JobResult
	switch req.Analysis {
	case KindLeakage:
		res, err := core.AnalyzeLeakage(nl, core.LeakageOptions{
			Regions: req.Regions, SigmaLogI: req.SigmaLogI,
			Order: req.Order, Step: req.Step, Steps: req.Steps,
			Ordering: ordering, TrackNodes: req.TrackNodes, Workers: workers,
			Obs: tr, Progress: j.progress, Ctx: j.ctx,
		})
		if err != nil {
			return nil, err
		}
		jr = fromCore(KindLeakage, res)
	case KindMC:
		spec := mna.DefaultSpec()
		if req.Variation != nil {
			spec = *req.Variation
		}
		sys, err := mna.Build(nl, spec)
		if err != nil {
			return nil, err
		}
		jr, err = s.executeMC(j, sys, ordering, workers, tr)
		if err != nil {
			return nil, err
		}
	default: // KindOpera
		res, err := core.AnalyzeNetlist(nl, core.Options{
			Order: req.Order, Step: req.Step, Steps: req.Steps,
			Variation: req.Variation, Ordering: ordering,
			TrackNodes: req.TrackNodes, ForceCoupled: req.ForceCoupled,
			ForceLU: req.ForceLU,
			Workers: workers, Obs: tr, Progress: j.progress, Ctx: j.ctx,
		})
		if err != nil {
			return nil, err
		}
		jr = fromCore(KindOpera, res)
	}
	tr.Finish()
	jr.TraceID = j.traceID
	jr.Key = j.key
	j.guard = jr.Guard
	j.health = jr.Health
	if jr.Guard != nil {
		j.escalations = jr.Guard.Escalations
	}
	if s.opts.CollectTrace {
		jr.Trace = tr.Dump()
		snap := tr.Registry().Snapshot()
		jr.Metrics = &snap
	}
	return json.Marshal(jr)
}

// executeMC runs the Monte Carlo analysis with the fault-tolerance
// machinery attached: resume from a stored snapshot when one exists
// for this content key, periodic checkpointing at merged-chunk
// boundaries, and a degraded partial result when a deadline or drain
// interrupts the sampling.
func (s *Server) executeMC(j *job, sys *mna.System, ordering order.Method, workers int, tr *obs.Tracer) (*JobResult, error) {
	req := j.req
	start := time.Now()
	mcOpts := montecarlo.Options{
		Samples: req.Samples, Step: req.Step, Steps: req.Steps,
		Ordering: ordering, Seed: req.Seed, Workers: workers, Obs: tr,
		Progress: j.progress, Ctx: j.ctx,
	}
	resumed := 0
	if s.ckpts != nil {
		var cp montecarlo.Checkpoint
		if info, ok, _ := s.ckpts.Load(j.key, &cp); ok && info.Kind == ckptKindMC {
			mcOpts.Resume = &cp
			resumed = cp.NextSample
		}
		mcOpts.CheckpointEvery = s.opts.CheckpointEvery
		mcOpts.OnCheckpoint = func(cp *montecarlo.Checkpoint) {
			if err := s.ckpts.Save(j.key, ckptKindMC, cp.NextSample, cp); err != nil {
				// A failed snapshot never fails the job — the solve
				// carries on; only resumability regresses to the last
				// good snapshot.
				s.mCkptFailures.Inc()
				if j.log != nil {
					j.event("job.checkpoint_fail", slog.String(logx.KeyError, err.Error()))
				}
				return
			}
			s.mCheckpoints.Inc()
		}
	}
	res, err := montecarlo.Run(sys, mcOpts)
	if mcOpts.Resume != nil && errors.Is(err, montecarlo.ErrBadResume) {
		// The snapshot does not fit this request (a stale or corrupted
		// survivor under a colliding key): drop it and solve fresh.
		s.ckpts.Delete(j.key)
		mcOpts.Resume = nil
		resumed = 0
		res, err = montecarlo.Run(sys, mcOpts)
	}
	if resumed > 0 {
		s.mResumes.Inc()
		if j.log != nil {
			j.event("job.resume", slog.Int("samples_done", resumed))
		}
	}
	if err != nil {
		if res == nil || res.SamplesRun == 0 || !degradedCause(j.ctx) {
			return nil, err
		}
		// Deadline or drain mid-sampling: return the honest partial
		// result — the moments over the merged prefix, with error bars
		// so the caller can judge whether the accuracy suffices.
		jr := fromMC(res, sys.VDD, time.Since(start))
		jr.Degraded = true
		jr.SamplesRequested = req.Samples
		jr.StdErr = mcStdErr(res)
		j.degraded = true
		if j.log != nil {
			j.event("job.degraded",
				slog.Int("samples_run", res.SamplesRun),
				slog.Int("samples_requested", req.Samples))
		}
		return jr, nil
	}
	return fromMC(res, sys.VDD, time.Since(start)), nil
}

// degradedCause reports whether the job's cancellation cause permits
// a degraded partial result: an expired deadline or a draining
// server. A user cancel is an explicit "stop" and a stall kill means
// the numbers cannot be trusted — neither degrades.
func degradedCause(ctx context.Context) bool {
	cause := context.Cause(ctx)
	return errors.Is(cause, context.DeadlineExceeded) || errors.Is(cause, errCauseDrain)
}

// buildNetlist materializes the request's circuit under the input
// limits.
func (s *Server) buildNetlist(req Request) (*netlist.Netlist, error) {
	if req.Grid != nil {
		return grid.Build(*req.Grid)
	}
	return netlist.ReadLimited(strings.NewReader(req.Netlist), s.opts.Limits)
}

// Status reports a job's current state.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		TraceID:  j.traceID,
		State:    j.state,
		Cached:   j.cached,
		Degraded: j.degraded,
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Canceled = errors.Is(j.err, cancel.ErrCanceled) || errors.Is(j.err, ErrHandedOff)
	}
	st.HandedOff = j.handedOff
	st.Peer = j.peer
	st.Diagnosis = j.diag
	if !j.started.IsZero() {
		st.QueuedMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	return st
}

// List returns the status of every known job, newest first.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	// Job ids are zero-padded sequence numbers: lexicographic order is
	// submission order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID > out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Result returns a finished job's stored result bytes (served verbatim
// so identical requests get byte-identical payloads).
func (s *Server) Result(id string) ([]byte, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, ErrUnknownJob
	}
	st := s.statusLocked(j)
	if j.state != StateDone {
		return nil, st, ErrNotFinished
	}
	return j.result, st, nil
}

// Cancel stops a job: a queued job is removed from its queue, a
// running one has its context canceled (the solve loops notice within
// one step/sample and return a structured cancel.Error).
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		s.interactive = removeJob(s.interactive, j)
		s.batch = removeJob(s.batch, j)
		s.mQueueDepth.Set(float64(len(s.interactive) + len(s.batch)))
		j.state = StateCanceled
		j.err = cancel.ErrCanceled
		j.finished = time.Now()
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		if j.cancelCause != nil {
			j.cancelCause(errCauseUser)
		}
		if j.stopTimer != nil {
			j.stopTimer()
		}
		s.mCanceled.Inc()
		s.mSLOCancels.Inc()
		if s.journal != nil {
			s.journal.record(journalRecord{Event: journalEnd, ID: j.id, State: StateCanceled})
		}
		st := s.statusLocked(j)
		s.mu.Unlock()
		// A queued job never ran: its terminal telemetry is emitted
		// here (finishJob never sees it), before waiters are released.
		s.recordTerminal(j, StateCanceled, cancel.ErrCanceled, false)
		close(j.done)
		return st, nil
	case StateRunning:
		if j.cancelCause != nil {
			j.cancelCause(errCauseUser)
		}
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	return st, nil
}

func removeJob(q []*job, j *job) []*job {
	for i, x := range q {
		if x == j {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	return s.Status(id)
}

// Shutdown drains the server: new submissions are rejected and
// readiness flips immediately; in peer mode the still-queued jobs are
// handed to their ring owners first (a job no peer accepts is requeued
// and solved locally); queued and running jobs are then given until
// ctx is done to finish, after which everything outstanding is
// canceled (the solve paths return within one step) and the workers
// are awaited. The journal is closed last. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var handoff []*job
	if s.peers.Load() != nil {
		// Claim the whole queue for handoff before any worker can.
		// handingOff keeps idle workers parked (not exited) until the
		// handoff pass finishes: a job whose handoff fails — peer down,
		// injected crash — is requeued, and a worker must still be
		// alive to solve it. Handing off is an optimization of drain,
		// never a way to lose work.
		handoff = append(append([]*job{}, s.interactive...), s.batch...)
		s.interactive, s.batch = nil, nil
		s.mQueueDepth.Set(0)
		s.handingOff = len(handoff) > 0
	}
	queued := len(handoff) + len(s.interactive) + len(s.batch)
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.log != nil {
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "service.drain",
			slog.Int(logx.KeyDepth, queued))
	}
	s.handoffQueued(handoff)
	if len(handoff) > 0 {
		s.mu.Lock()
		s.handingOff = false
		s.cond.Broadcast()
		s.mu.Unlock()
	}

	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	var err error
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-drained:
	case <-ctx.Done():
		// Deadline passed: cancel every outstanding job. Queued jobs
		// are claimed and fail their first poll; running jobs stop at
		// the next step/sample boundary.
		s.baseStop()
		<-drained
		err = ctx.Err()
	}
	s.baseStop()
	if s.journal != nil {
		s.journal.close()
	}
	return err
}

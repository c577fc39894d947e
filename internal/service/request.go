// Package service is the long-running OPERA analysis server: a bounded
// priority job queue with admission control on top of
// internal/parallel, a content-addressed result cache so identical
// requests cost one solve (the paper's own economics — one
// factorization amortized over a whole transient, Eq. 19 — applied
// across requests), per-job deadlines and cooperative cancellation
// threaded through every solve path via internal/cancel, and a
// lifecycle with graceful drain and panic-isolated job execution.
// cmd/operad exposes it over HTTP/JSON; the Client type in this
// package is the matching client used by cmd/opera -remote.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/obs"
	"opera/internal/order"
)

// Analysis kinds accepted by Request.Analysis.
const (
	KindOpera   = "opera"   // stochastic Galerkin chaos expansion (default)
	KindMC      = "mc"      // Monte Carlo baseline
	KindLeakage = "leakage" // §5.1 lognormal leakage special case
)

// Request is one analysis job, submitted as JSON. Exactly one of
// Netlist (inline text in the OPERA netlist format) or Grid (generator
// spec) describes the circuit. The zero values of the numeric solver
// fields mean "server default" and are normalized before hashing, so
// two requests that differ only in spelled-out defaults share a cache
// entry.
type Request struct {
	// Netlist is the inline netlist text; Grid the generator spec.
	Netlist string     `json:"netlist,omitempty"`
	Grid    *grid.Spec `json:"grid,omitempty"`

	// Analysis selects the workload: "opera" (default), "mc",
	// "leakage".
	Analysis string `json:"analysis,omitempty"`

	// Variation overrides the paper's Table-1 sensitivities.
	Variation *mna.VariationSpec `json:"variation,omitempty"`

	// Solver options (see core.Options). Zero Order/Step/Steps use the
	// server defaults (2, 1e-10, 20).
	Order        int     `json:"order,omitempty"`
	Step         float64 `json:"step,omitempty"`
	Steps        int     `json:"steps,omitempty"`
	Ordering     string  `json:"ordering,omitempty"` // amd (default)|nd|md|rcm|natural; every analysis kind
	TrackNodes   []int   `json:"track_nodes,omitempty"`
	ForceCoupled bool    `json:"force_coupled,omitempty"`
	ForceLU      bool    `json:"force_lu,omitempty"`

	// Monte Carlo parameters (Analysis == "mc").
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`

	// Leakage parameters (Analysis == "leakage").
	Regions   int     `json:"regions,omitempty"`
	SigmaLogI float64 `json:"sigma_log_i,omitempty"`

	// Execution-only knobs. None of these affect the computed numbers
	// (Workers is worker-count-invariant by the parallel layer's
	// determinism contract), so none participate in the cache key.
	//
	// TraceID is the caller-supplied request trace (32 hex chars; the
	// X-Opera-Trace-Id header fills it over HTTP). Empty means the
	// server mints one at admission. It tags the job's span tree, every
	// log line and the flight-recorder entry, and is echoed in all
	// responses — including 429 rejections — so a caller can always
	// join its request to the server's telemetry.
	TraceID string `json:"trace_id,omitempty"`
	// Priority is "interactive" (default; served first) or "batch".
	Priority string `json:"priority,omitempty"`
	// TimeoutMS bounds the job's wall time; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers caps the solver worker pools; 0 = GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// NoCache skips both cache lookup and store for this job.
	NoCache bool `json:"no_cache,omitempty"`
}

// Priorities.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// Normalize fills defaulted fields in place so that equivalent
// requests are literally equal (and therefore hash equal).
func (r *Request) Normalize() {
	if r.Analysis == "" {
		r.Analysis = KindOpera
	}
	if r.Order == 0 {
		r.Order = 2
	}
	if r.Step == 0 {
		r.Step = 1e-10
	}
	if r.Steps == 0 {
		r.Steps = 20
	}
	if r.Ordering == "" {
		r.Ordering = order.MethodAMD.String()
	}
	if r.Analysis == KindMC && r.Samples == 0 {
		r.Samples = 200
	}
	if r.Analysis == KindLeakage {
		if r.Regions == 0 {
			r.Regions = 4
		}
		if r.SigmaLogI == 0 {
			r.SigmaLogI = 0.6
		}
	}
	if r.Priority == "" {
		r.Priority = PriorityInteractive
	}
	if r.TraceID != "" {
		// Canonical lowercase; validity is checked in Validate.
		if id, err := obs.ParseTraceID(r.TraceID); err == nil {
			r.TraceID = string(id)
		}
	}
}

// Validate checks a normalized request.
func (r *Request) Validate() error {
	if (r.Netlist == "") == (r.Grid == nil) {
		return fmt.Errorf("service: request needs exactly one of netlist or grid")
	}
	if r.Grid != nil {
		if err := r.Grid.Validate(); err != nil {
			return fmt.Errorf("service: grid spec: %w", err)
		}
	}
	switch r.Analysis {
	case KindOpera, KindMC, KindLeakage:
	default:
		return fmt.Errorf("service: unknown analysis kind %q", r.Analysis)
	}
	if _, err := order.ParseMethod(r.Ordering); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if r.Order < 1 {
		return fmt.Errorf("service: order must be >= 1, got %d", r.Order)
	}
	if r.Step <= 0 || r.Steps < 1 {
		return fmt.Errorf("service: bad time stepping %g x %d", r.Step, r.Steps)
	}
	if r.Analysis == KindMC && r.Samples < 1 {
		return fmt.Errorf("service: mc needs >= 1 sample, got %d", r.Samples)
	}
	if r.Analysis == KindLeakage && (r.Regions < 1 || r.SigmaLogI <= 0) {
		return fmt.Errorf("service: leakage needs regions >= 1 and positive sigma")
	}
	switch r.Priority {
	case PriorityInteractive, PriorityBatch:
	default:
		return fmt.Errorf("service: unknown priority %q", r.Priority)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeout")
	}
	if r.TraceID != "" {
		if _, err := obs.ParseTraceID(r.TraceID); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	return nil
}

// cacheKeyPayload is the canonical content of a request: every field
// that changes the computed result, and nothing else. Field order is
// fixed by the struct declaration, and encoding/json encodes structs
// deterministically, so the encoded bytes are a canonical form.
type cacheKeyPayload struct {
	Netlist      string             `json:"netlist,omitempty"`
	Grid         *grid.Spec         `json:"grid,omitempty"`
	Analysis     string             `json:"analysis"`
	Variation    *mna.VariationSpec `json:"variation,omitempty"`
	Order        int                `json:"order"`
	Step         float64            `json:"step"`
	Steps        int                `json:"steps"`
	Ordering     string             `json:"ordering"`
	TrackNodes   []int              `json:"track_nodes,omitempty"`
	ForceCoupled bool               `json:"force_coupled"`
	ForceLU      bool               `json:"force_lu"`
	Samples      int                `json:"samples"`
	Seed         int64              `json:"seed"`
	Regions      int                `json:"regions"`
	SigmaLogI    float64            `json:"sigma_log_i"`
}

// Key computes the content address of a normalized request: the sha256
// of its canonical JSON. Requests that can only produce identical
// results (same circuit, same variation model, same solver options)
// share a key; execution knobs (priority, timeout, workers, caching)
// do not contribute.
func (r *Request) Key() string {
	payload := cacheKeyPayload{
		Netlist:      r.Netlist,
		Grid:         r.Grid,
		Analysis:     r.Analysis,
		Variation:    r.Variation,
		Order:        r.Order,
		Step:         r.Step,
		Steps:        r.Steps,
		Ordering:     r.Ordering,
		TrackNodes:   r.TrackNodes,
		ForceCoupled: r.ForceCoupled,
		ForceLU:      r.ForceLU,
		Samples:      r.Samples,
		Seed:         r.Seed,
		Regions:      r.Regions,
		SigmaLogI:    r.SigmaLogI,
	}
	b, err := json.Marshal(payload)
	if err != nil {
		// Marshaling a value-only struct cannot fail; keep the
		// invariant visible rather than silently degrading the cache.
		panic(fmt.Sprintf("service: canonical encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

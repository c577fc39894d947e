package service

import (
	"math"
	"time"

	"opera/internal/core"
	"opera/internal/montecarlo"
	"opera/internal/numguard"
	"opera/internal/obs"
)

// GuardSummary is the wire form of the numguard telemetry attached to
// a job result, so solve-path health is debuggable from the API alone.
type GuardSummary struct {
	Summary     string   `json:"summary"`
	Healthy     bool     `json:"healthy"`
	Transitions []string `json:"transitions,omitempty"`
	// Escalations counts ladder transitions — the
	// service.slo_escalations_total contribution of this job.
	Escalations int `json:"escalations,omitempty"`
	StepRetries int `json:"step_retries,omitempty"`
	NaNEvents   int `json:"nan_events,omitempty"`
}

func guardSummary(rep *numguard.Report) *GuardSummary {
	if rep == nil {
		return nil
	}
	snap := rep.Snapshot()
	gs := &GuardSummary{
		Summary:     snap.Summary(),
		Healthy:     snap.Healthy(),
		StepRetries: snap.StepRetries,
		NaNEvents:   snap.NaNEvents,
	}
	for _, tr := range snap.Transitions {
		gs.Transitions = append(gs.Transitions, tr.String())
	}
	gs.Escalations = len(gs.Transitions)
	return gs
}

// NumHealth is the per-job numerical-health record: what the solve
// cost and how trustworthy its numbers are, in machine-independent
// terms. It rides on the job result and the flight-recorder entry, so
// "why was this job slow / is this answer sound" is answerable from
// either end without rerunning anything.
type NumHealth struct {
	// Rung is the numguard ladder rung that served the solve
	// ("supernodal" for the eigenbasis recursions, "cg+mean-precond",
	// "block-cholesky", "lu", ...; "block-cholesky" is the supernodal
	// kernel on the coupled block companion).
	Rung string `json:"rung,omitempty"`
	// MaxResidual is the worst accepted scaled residual ‖Ax−b‖/(‖A‖‖x‖)
	// among verified solves.
	MaxResidual float64 `json:"max_residual,omitempty"`
	// CondEstimate is the Hager–Higham 1-norm condition estimate of the
	// solved operator (0 when no direct factor was available).
	CondEstimate float64 `json:"cond_estimate,omitempty"`
	// Escalations counts ladder rung transitions during the solve.
	Escalations int `json:"escalations,omitempty"`
	// FactorNNZ, FillRatio and FactorFlops describe the factorization
	// that served the solve: nnz of the factor, nnz(L)/nnz(upper(A)),
	// and the symbolic flop estimate (for Monte Carlo, summed over all
	// samples). Deterministic given the input — comparable across
	// machines and runs.
	FactorNNZ   int     `json:"factor_nnz,omitempty"`
	FillRatio   float64 `json:"fill_ratio,omitempty"`
	FactorFlops int64   `json:"factor_flops,omitempty"`
}

// healthFromCore assembles the record from the Galerkin telemetry.
func healthFromCore(res *core.Result) *NumHealth {
	g := res.Galerkin
	h := &NumHealth{
		Rung:         g.Factorer,
		CondEstimate: g.CondEst,
		FactorNNZ:    g.FactorNNZ,
		FillRatio:    g.FillRatio,
		FactorFlops:  g.FactorFlops,
	}
	if gd := g.Guard(); gd != nil {
		h.MaxResidual = gd.Snapshot().MaxResidual
		h.Escalations = gd.Escalations()
	}
	return h
}

// JobResult is the wire form of a finished analysis. The service
// stores the encoded bytes — what the cache holds and what the result
// endpoint serves verbatim, so repeated identical requests return
// byte-identical payloads.
type JobResult struct {
	// TraceID joins this result to the server's telemetry for the job
	// that computed it: the span tree, the structured log lines and the
	// flight-recorder entry all carry the same ID. Cached replays keep
	// the ID of the job that originally solved (the cache serves bytes
	// verbatim); the response headers carry the current request's ID.
	TraceID string `json:"trace_id,omitempty"`
	// Key is the canonical content key of the request that produced
	// this result (sha256 of the normalized request — the cache and
	// ring-placement address, also in the X-Opera-Cache-Key header), so
	// a client holding only result bytes can re-address them anywhere
	// on the cluster without recomputing the hash.
	Key string `json:"key,omitempty"`

	Kind  string  `json:"kind"`
	N     int     `json:"n"`
	Steps int     `json:"steps"`
	Basis int     `json:"basis,omitempty"`
	VDD   float64 `json:"vdd,omitempty"`

	// Mean[s][i] / Variance[s][i]: per-step, per-node moments.
	Mean     [][]float64 `json:"mean"`
	Variance [][]float64 `json:"variance"`

	// Worst-drop summary (OPERA/leakage kinds).
	WorstNode    int     `json:"worst_node"`
	WorstStep    int     `json:"worst_step"`
	WorstDropPct float64 `json:"worst_drop_pct,omitempty"`
	WorstStd     float64 `json:"worst_std,omitempty"`

	// Solver telemetry.
	Decoupled  bool          `json:"decoupled,omitempty"`
	Factorer   string        `json:"factorer,omitempty"`
	AugmentedN int           `json:"augmented_n,omitempty"`
	FactorNNZ  int           `json:"factor_nnz,omitempty"`
	SamplesRun int           `json:"samples_run,omitempty"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Guard      *GuardSummary `json:"guard,omitempty"`
	// Health is the numerical-health record of the solve (nil only for
	// analyses that expose no solver telemetry).
	Health *NumHealth `json:"health,omitempty"`

	// Degraded marks a partial Monte Carlo result returned because a
	// deadline or drain interrupted the sampling: the moments cover
	// SamplesRun of SamplesRequested samples — a contiguous,
	// bit-reproducible prefix — with StdErr giving the standard error
	// of each mean so the caller can judge the accuracy. Degraded
	// results are never cached; resubmitting the same request resumes
	// from the retained checkpoint and runs to the full budget.
	Degraded         bool        `json:"degraded,omitempty"`
	SamplesRequested int         `json:"samples_requested,omitempty"`
	StdErr           [][]float64 `json:"stderr,omitempty"`

	// Trace is the job's span tree (assemble/stamp/order/factor/
	// transient/moments with wall time and allocation deltas).
	Trace *obs.Dump `json:"trace,omitempty"`
	// Metrics is the job-scoped metrics snapshot.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// fromCore converts an OPERA (or leakage) core.Result.
func fromCore(kind string, res *core.Result) *JobResult {
	node, step := res.MaxMeanDropNode()
	drop := res.VDD - res.Mean[step][node]
	jr := &JobResult{
		Kind:       kind,
		N:          res.N,
		Steps:      res.Steps,
		Basis:      res.Basis.Size(),
		VDD:        res.VDD,
		Mean:       res.Mean,
		Variance:   res.Variance,
		WorstNode:  node,
		WorstStep:  step,
		WorstStd:   math.Sqrt(res.Variance[step][node]),
		Decoupled:  res.Galerkin.Decoupled,
		Factorer:   res.Galerkin.Factorer,
		AugmentedN: res.Galerkin.AugmentedN,
		FactorNNZ:  res.Galerkin.FactorNNZ,
		ElapsedMS:  float64(res.Elapsed) / float64(time.Millisecond),
		Guard:      guardSummary(res.Galerkin.Guard()),
		Health:     healthFromCore(res),
	}
	if res.VDD > 0 {
		jr.WorstDropPct = 100 * drop / res.VDD
	}
	return jr
}

// fromMC converts a Monte Carlo result.
func fromMC(res *montecarlo.Result, vdd float64, elapsed time.Duration) *JobResult {
	jr := &JobResult{
		Kind:       KindMC,
		N:          res.N,
		Steps:      res.Steps,
		VDD:        vdd,
		Mean:       res.Mean,
		Variance:   res.Variance,
		SamplesRun: res.SamplesRun,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		Health: &NumHealth{
			Rung:        "supernodal", // the kernel montecarlo factors every sample with
			FactorNNZ:   res.FactorNNZ,
			FillRatio:   res.FillRatio,
			FactorFlops: res.FactorFlops,
		},
	}
	worst := -1.0
	for s := range res.Mean {
		for i, v := range res.Mean[s] {
			if d := vdd - v; d > worst {
				worst = d
				jr.WorstNode, jr.WorstStep = i, s
			}
		}
	}
	jr.WorstStd = math.Sqrt(res.Variance[jr.WorstStep][jr.WorstNode])
	if vdd > 0 {
		jr.WorstDropPct = 100 * worst / vdd
	}
	return jr
}

// mcStdErr computes the standard error of each per-step, per-node
// mean. Result.Variance is the population variance m2/n, so the
// unbiased standard error is sqrt(m2/(n−1)/n) = sqrt(Variance/(n−1)).
// Needs at least two samples.
func mcStdErr(res *montecarlo.Result) [][]float64 {
	n := res.SamplesRun
	if n < 2 {
		return nil
	}
	out := make([][]float64, len(res.Variance))
	for s := range res.Variance {
		row := make([]float64, len(res.Variance[s]))
		for i, v := range res.Variance[s] {
			row[i] = math.Sqrt(v / float64(n-1))
		}
		out[s] = row
	}
	return out
}

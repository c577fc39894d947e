// Package montecarlo implements the classical Monte Carlo baseline the
// paper compares OPERA against (§6, Table 1: 1000 samples per grid):
// draw a realization of the variation variables, refill the perturbed
// matrices, refactor the companion matrix, run the fixed-step transient
// and accumulate streaming statistics of every node voltage at every
// time point. Each sample pays only for what its draw changes — the
// strongest fair version of the baseline:
//
//   - One supernodal symbolic analysis on the union pattern serves every
//     sample.
//   - A fill plan (mna.Plan), built once per run, maps every stored
//     entry of Ga, Ca and each sensitivity to its slot in the fixed
//     patterns of G(z) and C(z); each worker's stepper maps those slots
//     once into the permuted lower triangle the supernodal panels
//     scatter from. A sample then refills its worker's G, C and
//     companion values and refactors in place (transient.Stepper's
//     Refactor), with no per-sample add, permutation, triangle split or
//     transpose.
//   - The excitation parts ua(t_s) and u_k(t_s) are tabulated once per
//     run (mna.Excitation) and shared read-only by all workers; a sample
//     forms u = ua + Σ_k z_k·u_k from the table.
//
// Every value is computed with the operations of the sparse.Add chain
// and RHS closure that mna.System.Realize defines, so the refill is
// bit-identical to realizing each sample from scratch.
//
// Samples are independent, so the loop fans out across a worker pool.
// The run is deterministic by construction, not by luck:
//
//   - Sample k draws its K variables from randvar.NewStream(Seed, k) —
//     a private substream keyed by the sample index, so the draws do
//     not depend on which worker runs the sample or in what order.
//   - Samples are grouped into fixed-size chunks (boundaries depend
//     only on the sample count), each chunk accumulates into a private
//     moment shard, and shards merge into the global accumulators in
//     ascending chunk order via randvar.Running.Merge.
//
// Together these make Mean/Variance (and Traces) bit-identical for any
// worker count, including 1.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"opera/internal/cancel"
	"opera/internal/factor"
	"opera/internal/mna"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/parallel"
	"opera/internal/randvar"
	"opera/internal/sparse"
	"opera/internal/transient"
)

// Options configures a Monte Carlo run.
type Options struct {
	Samples int
	Step    float64
	Steps   int
	Method  transient.Method
	Seed    int64
	// Ordering selects the fill-reducing permutation of the shared
	// symbolic analysis; the zero value is AMD.
	Ordering order.Method
	// Workers caps the sampling worker pool; 0 or negative means
	// GOMAXPROCS. Results are identical for every value.
	Workers int
	// LatinHypercube stratifies the parameter draws (variance
	// reduction); plain i.i.d. sampling matches the paper's setup.
	LatinHypercube bool
	// TrackNodes optionally restricts full per-sample trace collection
	// to these nodes (statistics still cover every node).
	TrackNodes []int
	// Obs, when non-nil, wraps the run in a montecarlo.run span and
	// feeds montecarlo.sample_ms / montecarlo.samples_total /
	// montecarlo.elapsed_ms (plus the transient package's per-step
	// metrics) on the tracer's registry.
	Obs *obs.Tracer
	// Ctx, when non-nil, is polled before every sample and every time
	// step inside a sample; a canceled or expired context stops the run
	// within one step with a structured error wrapping
	// cancel.ErrCanceled. When samples have already been merged, the
	// partial Result (moments over the merged prefix, SamplesRun set
	// accordingly) is returned alongside the error so callers can serve
	// a statistically honest degraded answer. Nil disables the check.
	Ctx context.Context
	// Progress, when non-nil, is advanced once per completed sample
	// (and, via the inner transient stepper, once per time step) — the
	// liveness signal a stall watchdog monitors. Nil disables it.
	Progress *obs.Progress
	// CheckpointEvery emits a resumable Checkpoint through OnCheckpoint
	// whenever at least that many new samples have been merged since
	// the last snapshot. 0 disables checkpointing.
	CheckpointEvery int
	// OnCheckpoint receives periodic snapshots of the merged prefix. It
	// runs on the merge goroutine (never concurrently with itself); a
	// slow callback back-pressures the sampling pipeline but cannot
	// corrupt it. The snapshot is a deep copy — safe to serialize after
	// the call returns.
	OnCheckpoint func(cp *Checkpoint)
	// Resume restarts a run from a previous Checkpoint: merged moments
	// are restored exactly and sampling continues at cp.NextSample.
	// Because sample k's RNG substream depends only on (Seed, k) and
	// chunks merge in ascending order, the final result is bit-identical
	// to an uninterrupted run, at any worker count. A checkpoint whose
	// shape does not match the options fails with ErrBadResume.
	Resume *Checkpoint
}

// ErrBadResume rejects a Resume checkpoint that does not match the run
// it is being applied to (different system size, time stepping,
// integration method, sample budget, seed, sampling scheme or tracked
// nodes, or a next-sample index off the chunk grid). Callers holding a
// possibly stale snapshot should discard it and restart from scratch.
var ErrBadResume = errors.New("montecarlo: incompatible resume checkpoint")

// Checkpoint is a resumable snapshot of a Monte Carlo run: the
// Chan/Pébay accumulator states of every merged sample, the tracked
// traces of the merged prefix, and the index of the next sample to
// draw. NextSample always sits on a chunk boundary, so the resumed
// run's chunk layout — and therefore its merge order and its
// floating-point association — is identical to the uninterrupted run's.
type Checkpoint struct {
	N              int              `json:"n"`
	Step           float64          `json:"step"`
	Steps          int              `json:"steps"`
	Method         transient.Method `json:"method"`
	Samples        int              `json:"samples"`
	Seed           int64            `json:"seed"`
	LatinHypercube bool             `json:"latin_hypercube"`
	TrackNodes     []int            `json:"track_nodes,omitempty"`
	NextSample     int              `json:"next_sample"`
	// Acc[s][i] is the accumulator state of node i at step s over
	// samples [0, NextSample).
	Acc [][]randvar.RunningState `json:"acc"`
	// Traces holds the tracked-node traces of the merged prefix when
	// TrackNodes is set (indexed by sample, like Result.Traces).
	Traces [][][]float64 `json:"traces,omitempty"`
}

// compatible validates a checkpoint against the run about to use it.
func (cp *Checkpoint) compatible(n int, opts Options) error {
	nsteps := opts.Steps + 1
	switch {
	case cp.N != n:
		return fmt.Errorf("%w: snapshot has %d nodes, run has %d", ErrBadResume, cp.N, n)
	case cp.Step != opts.Step:
		return fmt.Errorf("%w: snapshot step %g, run step %g", ErrBadResume, cp.Step, opts.Step)
	case cp.Steps != opts.Steps:
		return fmt.Errorf("%w: snapshot has %d steps, run has %d", ErrBadResume, cp.Steps, opts.Steps)
	case cp.Method != opts.Method:
		return fmt.Errorf("%w: snapshot method %v, run method %v", ErrBadResume, cp.Method, opts.Method)
	case cp.Samples != opts.Samples:
		return fmt.Errorf("%w: snapshot budget %d samples, run wants %d", ErrBadResume, cp.Samples, opts.Samples)
	case cp.Seed != opts.Seed:
		return fmt.Errorf("%w: snapshot seed %d, run seed %d", ErrBadResume, cp.Seed, opts.Seed)
	case cp.LatinHypercube != opts.LatinHypercube:
		return fmt.Errorf("%w: snapshot Latin hypercube %t, run %t", ErrBadResume, cp.LatinHypercube, opts.LatinHypercube)
	case !slices.Equal(cp.TrackNodes, opts.TrackNodes):
		return fmt.Errorf("%w: snapshot tracks nodes %v, run tracks %v", ErrBadResume, cp.TrackNodes, opts.TrackNodes)
	case cp.NextSample < 0 || cp.NextSample > opts.Samples,
		cp.NextSample%mcChunk != 0 && cp.NextSample != opts.Samples:
		return fmt.Errorf("%w: next sample %d off the chunk grid", ErrBadResume, cp.NextSample)
	case len(opts.TrackNodes) > 0 && len(cp.Traces) != cp.NextSample:
		return fmt.Errorf("%w: snapshot traces cover %d samples, want %d", ErrBadResume, len(cp.Traces), cp.NextSample)
	case len(cp.Acc) != nsteps:
		return fmt.Errorf("%w: snapshot has %d step rows, want %d", ErrBadResume, len(cp.Acc), nsteps)
	}
	for s := range cp.Acc {
		if len(cp.Acc[s]) != n {
			return fmt.Errorf("%w: step %d has %d nodes, want %d", ErrBadResume, s, len(cp.Acc[s]), n)
		}
	}
	return nil
}

// TrackNodeError reports a TrackNodes entry outside the system's node
// range. It is returned by Validate (and therefore Run) instead of the
// index panic the bad entry would otherwise cause deep inside the
// sample loop.
type TrackNodeError struct {
	Node int // the offending TrackNodes entry
	N    int // valid node indices are [0, N)
}

func (e *TrackNodeError) Error() string {
	return fmt.Sprintf("montecarlo: TrackNodes entry %d outside node range [0, %d)", e.Node, e.N)
}

// Validate checks the options against a system of n nodes. Pass n <= 0
// to skip the TrackNodes upper-bound check when no system is at hand
// (negative entries are always rejected).
func (o Options) Validate(n int) error {
	if o.Samples < 1 {
		return fmt.Errorf("montecarlo: need at least one sample, got %d", o.Samples)
	}
	if o.Step <= 0 || o.Steps < 1 {
		return fmt.Errorf("montecarlo: bad time stepping %g x %d", o.Step, o.Steps)
	}
	for _, node := range o.TrackNodes {
		if node < 0 || (n > 0 && node >= n) {
			return &TrackNodeError{Node: node, N: n}
		}
	}
	return nil
}

// Result accumulates per-node, per-step statistics and optional traces.
type Result struct {
	N     int
	Steps int
	// Mean[s][i] and Variance[s][i] are the sample mean and population
	// variance of node i at step s (s = 0 is the DC initial point).
	Mean, Variance [][]float64
	// Traces[k][s] holds the tracked nodes' voltages for sample k at
	// step s, in TrackNodes order (nil when TrackNodes is empty).
	Traces [][][]float64
	// SamplesRun is the number of completed samples.
	SamplesRun int
	// FactorNNZ, FillRatio and FactorFlops describe the shared symbolic
	// Cholesky analysis that every sample refactors numerically:
	// nnz(L), nnz(L)/nnz(upper(A)), and the per-sample symbolic flop
	// estimate times SamplesRun. All deterministic given the pattern.
	FactorNNZ   int
	FillRatio   float64
	FactorFlops int64
}

// mcChunk is the fixed number of samples per accumulation chunk. The
// boundary layout depends only on the sample count — never the worker
// count — which is half of the determinism contract (the other half is
// the per-sample RNG substream).
const mcChunk = 4

// sampler is one worker's state, reused by every sample the worker
// runs: its realization of G(z) and C(z) (refilled through the run's
// plan), the stepper built on them at the worker's first sample and
// refactored in place for each later one, and the draw and excitation
// buffers.
type sampler struct {
	g, c *sparse.Matrix
	st   *transient.Stepper
	z, u []float64
}

// mcShard is one chunk's private accumulation state.
type mcShard struct {
	acc [][]randvar.Running // [step][node]
	lo  int                 // first sample of the chunk
	hi  int                 // one past the last sample
}

// Run executes the Monte Carlo experiment over the K independent
// Gaussian variables of a stamped MNA system, for any variation model.
func Run(sys *mna.System, opts Options) (*Result, error) {
	if err := opts.Validate(sys.N); err != nil {
		return nil, err
	}
	n := sys.N
	nsteps := opts.Steps + 1
	acc := make([][]randvar.Running, nsteps)
	for s := range acc {
		acc[s] = make([]randvar.Running, n)
	}
	res := &Result{N: n, Steps: opts.Steps}
	if len(opts.TrackNodes) > 0 {
		res.Traces = make([][][]float64, opts.Samples)
	}

	// Resume: restore the merged prefix exactly and pick up sampling at
	// the snapshot's chunk boundary.
	startChunk := 0
	if cp := opts.Resume; cp != nil {
		if err := cp.compatible(n, opts); err != nil {
			return nil, err
		}
		for s := range acc {
			for i := range acc[s] {
				acc[s][i].Restore(cp.Acc[s][i])
			}
		}
		if res.Traces != nil {
			copy(res.Traces, cp.Traces)
		}
		res.SamplesRun = cp.NextSample
		// Ceiling division covers the NextSample == Samples case, where
		// the final (possibly short) chunk is already merged.
		startChunk = (cp.NextSample + mcChunk - 1) / mcChunk
	}

	workers := parallel.Workers(opts.Workers)
	tr := opts.Obs
	runStart := time.Now()
	sp := tr.Start("montecarlo.run",
		obs.Int("samples", opts.Samples), obs.Int("steps", opts.Steps),
		obs.Int("n", n), obs.Int("workers", workers))
	sp.MarkAllocsApprox() // samples allocate concurrently on worker goroutines
	defer sp.End()
	reg := tr.Registry()
	sampleMS := reg.Histogram("montecarlo.sample_ms", obs.MSBuckets)
	samplesTotal := reg.Counter("montecarlo.samples_total")
	reg.Gauge("parallel.workers").Set(float64(workers))

	// One symbolic analysis on the union pattern of G + C/h serves every
	// sample (read-only during factorization, safe to share).
	scale := 1 / opts.Step
	if opts.Method == transient.Trapezoidal {
		scale = 2 / opts.Step
	}
	union := sys.UnionPattern()
	pattern := sparse.Add(1, union, scale, union)
	sym := factor.CholAnalyzeSupernodal(pattern, order.Permute(opts.Ordering, pattern), -1)

	var lhsDraws [][]float64
	if opts.LatinHypercube {
		lhsDraws = randvar.LatinHypercubeNormal(randvar.NewStream(opts.Seed, 0), opts.Samples, sys.Dims())
	}

	// What no sample changes is computed once and shared read-only: the
	// fill plan of G(z) and C(z) and the excitation table.
	plan := sys.Plan()
	exc := sys.Tabulate(opts.Step, opts.Steps)
	stepOpts := transient.Options{
		Step: opts.Step, Steps: opts.Steps, Method: opts.Method,
		Symbolic: sym, Obs: opts.Obs, Progress: opts.Progress,
	}

	// Per-worker mutable state: the sampler and the per-worker
	// sample-time histogram. Shards are pooled because a chunk's
	// accumulator array (nsteps×n) is the largest transient allocation
	// of the loop.
	samplers := make([]sampler, workers)
	workerMS := make([]*obs.Histogram, workers)
	for w := 0; w < workers; w++ {
		workerMS[w] = reg.WorkerHistogram("montecarlo.sample_ms", w, obs.MSBuckets)
	}
	shardPool := sync.Pool{New: func() any {
		sh := &mcShard{acc: make([][]randvar.Running, nsteps)}
		for s := range sh.acc {
			sh.acc[s] = make([]randvar.Running, n)
		}
		return sh
	}}

	chunks := (opts.Samples + mcChunk - 1) / mcChunk
	runChunk := func(worker, chunk int) (*mcShard, error) {
		chunk += startChunk
		sh := shardPool.Get().(*mcShard)
		sh.lo = chunk * mcChunk
		sh.hi = sh.lo + mcChunk
		if sh.hi > opts.Samples {
			sh.hi = opts.Samples
		}
		for s := range sh.acc {
			for i := range sh.acc[s] {
				sh.acc[s][i].Reset()
			}
		}
		sm := &samplers[worker]
		if sm.g == nil {
			sm.g, sm.c = plan.Matrices()
			sm.z = make([]float64, sys.Dims())
			sm.u = make([]float64, n)
		}
		for k := sh.lo; k < sh.hi; k++ {
			if err := cancel.Poll(opts.Ctx, "montecarlo", k); err != nil {
				return nil, err
			}
			var sampleStart time.Time
			if sampleMS != nil {
				sampleStart = time.Now()
			}
			drawSample(opts, lhsDraws, k, sm.z)
			plan.Fill(sm.z, sm.g, sm.c)
			var err error
			if sm.st == nil {
				sm.st, err = transient.NewStepper(sm.g, sm.c, stepOpts)
			} else {
				err = sm.st.Refactor()
			}
			if err != nil {
				return nil, fmt.Errorf("montecarlo: sample %d: %w", k, err)
			}
			st := sm.st
			exc.At(0, sm.z, sm.u)
			if err := st.InitDC(sm.u); err != nil {
				return nil, fmt.Errorf("montecarlo: sample %d DC: %w", k, err)
			}
			record(res, sh.acc, opts, k, 0, st.State())
			for s := 1; s <= opts.Steps; s++ {
				if err := cancel.Poll(opts.Ctx, "montecarlo", k); err != nil {
					return nil, err
				}
				exc.At(s, sm.z, sm.u)
				if err := st.Advance(sm.u); err != nil {
					return nil, fmt.Errorf("montecarlo: sample %d step %d: %w", k, s, err)
				}
				record(res, sh.acc, opts, k, s, st.State())
			}
			if sampleMS != nil {
				sampleMS.ObserveSince(sampleStart)
				workerMS[worker].ObserveSince(sampleStart)
				samplesTotal.Inc()
			}
			opts.Progress.Mark()
		}
		return sh, nil
	}
	// lastCkpt tracks the merged-sample count at the latest snapshot; it
	// is only touched on the merge goroutine (OrderedChunks serializes
	// merges), so no locking is needed.
	lastCkpt := res.SamplesRun
	mergeChunk := func(_ int, sh *mcShard) error {
		for s := range acc {
			for i := range acc[s] {
				acc[s][i].Merge(&sh.acc[s][i])
			}
		}
		// Read the shard's bound before returning it: once pooled, a
		// worker may reuse it for its next chunk.
		hi := sh.hi
		res.SamplesRun = hi
		shardPool.Put(sh)
		if opts.OnCheckpoint != nil && opts.CheckpointEvery > 0 &&
			hi < opts.Samples && hi-lastCkpt >= opts.CheckpointEvery {
			lastCkpt = hi
			opts.OnCheckpoint(snapshot(res, acc, opts, n, hi))
		}
		return nil
	}
	runErr := parallel.OrderedChunks(workers, chunks-startChunk, 2*workers, runChunk, mergeChunk)

	finalize := func() {
		res.Mean = make([][]float64, nsteps)
		res.Variance = make([][]float64, nsteps)
		for s := 0; s < nsteps; s++ {
			res.Mean[s] = make([]float64, n)
			res.Variance[s] = make([]float64, n)
			for i := 0; i < n; i++ {
				res.Mean[s][i] = acc[s][i].Mean()
				res.Variance[s][i] = acc[s][i].Variance()
			}
		}
		res.FactorNNZ = sym.LNNZ()
		res.FillRatio = sym.FillRatio()
		res.FactorFlops = int64(res.SamplesRun) * sym.FlopEstimate()
	}
	if runErr != nil {
		// A canceled run (deadline, drain, stall watchdog) with merged
		// samples still has honest statistics over [0, SamplesRun): the
		// merged prefix is contiguous (merges are strictly ascending) and
		// equals what a run with Samples=SamplesRun would have produced.
		// Return it alongside the error so the service can serve a
		// degraded result; every other failure returns nil as before.
		if errors.Is(runErr, cancel.ErrCanceled) && res.SamplesRun > 0 {
			if res.Traces != nil {
				// Drop traces computed by chunks that never merged so the
				// result covers exactly the merged prefix.
				for k := res.SamplesRun; k < len(res.Traces); k++ {
					res.Traces[k] = nil
				}
			}
			finalize()
			return res, runErr
		}
		return nil, runErr
	}

	reg.Gauge("montecarlo.elapsed_ms").Set(float64(time.Since(runStart)) / float64(time.Millisecond))
	finalize()
	return res, nil
}

// snapshot deep-copies the merged prefix into a Checkpoint. It runs on
// the merge goroutine: accumulators for merged chunks are quiescent and
// trace rows below the merge frontier were written before their chunk
// was handed to the merger, so the copy is race-free.
func snapshot(res *Result, acc [][]randvar.Running, opts Options, n, next int) *Checkpoint {
	cp := &Checkpoint{
		N: n, Step: opts.Step, Steps: opts.Steps, Method: opts.Method,
		Samples: opts.Samples, Seed: opts.Seed, LatinHypercube: opts.LatinHypercube,
		TrackNodes: slices.Clone(opts.TrackNodes),
		NextSample: next,
		Acc:        make([][]randvar.RunningState, len(acc)),
	}
	for s := range acc {
		cp.Acc[s] = make([]randvar.RunningState, n)
		for i := range acc[s] {
			cp.Acc[s][i] = acc[s][i].State()
		}
	}
	if res.Traces != nil {
		cp.Traces = make([][][]float64, next)
		copy(cp.Traces, res.Traces[:next])
	}
	return cp
}

// drawSample fills z with sample k's parameter realization. In i.i.d.
// mode each sample owns the substream keyed by its index — len(z)
// NormFloat64 draws from a stream no other sample touches — so the
// value depends only on (Seed, k). Latin hypercube mode reads the
// precomputed table.
func drawSample(opts Options, lhs [][]float64, k int, z []float64) {
	if lhs != nil {
		copy(z, lhs[k])
		return
	}
	rng := randvar.NewStream(opts.Seed, int64(k))
	for d := range z {
		z[d] = rng.NormFloat64()
	}
}

// record pushes sample k's state at one step into the chunk-private
// accumulators and, when tracking is on, stores the trace row. Traces
// are indexed by sample, so workers write disjoint entries.
func record(res *Result, acc [][]randvar.Running, opts Options, sample, step int, x []float64) {
	for i, v := range x {
		acc[step][i].Push(v)
	}
	if len(opts.TrackNodes) == 0 {
		return
	}
	if res.Traces[sample] == nil {
		res.Traces[sample] = make([][]float64, opts.Steps+1)
	}
	tr := make([]float64, len(opts.TrackNodes))
	for j, node := range opts.TrackNodes {
		tr[j] = x[node]
	}
	res.Traces[sample][step] = tr
}

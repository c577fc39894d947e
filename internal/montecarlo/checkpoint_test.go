package montecarlo

import (
	"context"
	"errors"
	"math"
	"testing"

	"opera/internal/cancel"
	"opera/internal/obs"
	"opera/internal/transient"
)

// bitsEqual compares two moment matrices bit-for-bit.
func bitsEqual(t *testing.T, what string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", what, len(a), len(b))
	}
	for s := range a {
		for i := range a[s] {
			if math.Float64bits(a[s][i]) != math.Float64bits(b[s][i]) {
				t.Fatalf("%s differs at step %d node %d: %g vs %g", what, s, i, a[s][i], b[s][i])
			}
		}
	}
}

// A run interrupted at a checkpoint and resumed — at any worker count —
// must reproduce the uninterrupted run bit-for-bit, traces included.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	sys := testGrid()
	base := Options{Samples: 120, Step: 5e-11, Steps: 8, Seed: 42, TrackNodes: []int{3, 11}}

	full, err := Run(sys, base)
	if err != nil {
		t.Fatal(err)
	}

	// Capture checkpoints from a single-worker reference run.
	var cps []*Checkpoint
	ckptOpts := base
	ckptOpts.Workers = 1
	ckptOpts.CheckpointEvery = 32
	ckptOpts.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
	if _, err := Run(sys, ckptOpts); err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("expected at least 2 checkpoints, got %d", len(cps))
	}
	for _, cp := range cps {
		if cp.NextSample%mcChunk != 0 || cp.NextSample <= 0 || cp.NextSample >= base.Samples {
			t.Fatalf("checkpoint off the chunk grid: next=%d", cp.NextSample)
		}
		if len(cp.Traces) != cp.NextSample {
			t.Fatalf("checkpoint traces cover %d samples, want %d", len(cp.Traces), cp.NextSample)
		}
		for workers := 1; workers <= 4; workers++ {
			opts := base
			opts.Workers = workers
			opts.Resume = cp
			res, err := Run(sys, opts)
			if err != nil {
				t.Fatalf("resume from %d with %d workers: %v", cp.NextSample, workers, err)
			}
			if res.SamplesRun != base.Samples {
				t.Fatalf("resume ran %d samples, want %d", res.SamplesRun, base.Samples)
			}
			bitsEqual(t, "mean", res.Mean, full.Mean)
			bitsEqual(t, "variance", res.Variance, full.Variance)
			for k := range full.Traces {
				for s := range full.Traces[k] {
					for j := range full.Traces[k][s] {
						if math.Float64bits(res.Traces[k][s][j]) != math.Float64bits(full.Traces[k][s][j]) {
							t.Fatalf("trace differs at sample %d step %d", k, s)
						}
					}
				}
			}
		}
	}
}

// Checkpoints taken at different worker counts must be interchangeable:
// the merged prefix is worker-count-invariant, so a 4-worker run's
// snapshot resumes a 1-worker run and vice versa.
func TestCheckpointWorkerCountInvariant(t *testing.T) {
	sys := testGrid()
	base := Options{Samples: 96, Step: 5e-11, Steps: 5, Seed: 9}
	grab := func(workers int) *Checkpoint {
		var first *Checkpoint
		opts := base
		opts.Workers = workers
		opts.CheckpointEvery = 48
		opts.OnCheckpoint = func(cp *Checkpoint) {
			if first == nil {
				first = cp
			}
		}
		if _, err := Run(sys, opts); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			t.Fatal("no checkpoint emitted")
		}
		return first
	}
	cp1, cp4 := grab(1), grab(4)
	if cp1.NextSample != cp4.NextSample {
		t.Fatalf("checkpoint boundaries differ: %d vs %d", cp1.NextSample, cp4.NextSample)
	}
	for s := range cp1.Acc {
		for i := range cp1.Acc[s] {
			if cp1.Acc[s][i] != cp4.Acc[s][i] {
				t.Fatalf("accumulator state differs at step %d node %d", s, i)
			}
		}
	}
}

func TestResumeValidation(t *testing.T) {
	sys := testGrid()
	base := Options{Samples: 40, Step: 5e-11, Steps: 4, Seed: 3, CheckpointEvery: 16}
	var cp *Checkpoint
	base.OnCheckpoint = func(c *Checkpoint) {
		if cp == nil {
			cp = c
		}
	}
	if _, err := Run(sys, base); err != nil {
		t.Fatal(err)
	}
	cases := []func(o *Options){
		func(o *Options) { o.Seed = 99 },
		func(o *Options) { o.Samples = 44 },
		func(o *Options) { o.Steps = 5 },
		func(o *Options) { o.Step = 1e-10 },
		func(o *Options) { o.Method = transient.Trapezoidal },
		func(o *Options) { o.LatinHypercube = true },
		func(o *Options) { o.TrackNodes = []int{3} },
	}
	for i, mutate := range cases {
		opts := Options{Samples: 40, Step: 5e-11, Steps: 4, Seed: 3, Resume: cp}
		mutate(&opts)
		if _, err := Run(sys, opts); !errors.Is(err, ErrBadResume) {
			t.Errorf("case %d: expected ErrBadResume, got %v", i, err)
		}
	}
	bad := *cp
	bad.NextSample = 7 // off the chunk grid
	opts := Options{Samples: 40, Step: 5e-11, Steps: 4, Seed: 3, Resume: &bad}
	if _, err := Run(sys, opts); !errors.Is(err, ErrBadResume) {
		t.Errorf("off-grid NextSample accepted: %v", err)
	}

	// A tracked snapshot resumes only a run tracking the same nodes,
	// and only when its traces cover the merged prefix.
	var tracked *Checkpoint
	tOpts := base
	tOpts.TrackNodes = []int{3, 11}
	tOpts.OnCheckpoint = func(c *Checkpoint) {
		if tracked == nil {
			tracked = c
		}
	}
	if _, err := Run(sys, tOpts); err != nil {
		t.Fatal(err)
	}
	for i, mutate := range []func(o *Options, cp *Checkpoint){
		func(o *Options, _ *Checkpoint) { o.TrackNodes = nil },
		func(o *Options, _ *Checkpoint) { o.TrackNodes = []int{11, 3} },
		func(_ *Options, cp *Checkpoint) { cp.Traces = cp.Traces[:len(cp.Traces)-1] },
	} {
		cp := *tracked
		opts := Options{Samples: 40, Step: 5e-11, Steps: 4, Seed: 3, TrackNodes: []int{3, 11}, Resume: &cp}
		mutate(&opts, &cp)
		if _, err := Run(sys, opts); !errors.Is(err, ErrBadResume) {
			t.Errorf("tracked case %d: expected ErrBadResume, got %v", i, err)
		}
	}
	good := *tracked
	if _, err := Run(sys, Options{Samples: 40, Step: 5e-11, Steps: 4, Seed: 3, TrackNodes: []int{3, 11}, Resume: &good}); err != nil {
		t.Errorf("matching tracked snapshot rejected: %v", err)
	}
}

// A canceled run returns the honest partial result: moments over the
// merged prefix, bit-identical to a fresh run whose budget is exactly
// that prefix.
func TestPartialResultOnCancel(t *testing.T) {
	sys := testGrid()
	ctx, cancelFn := context.WithCancel(context.Background())
	const total = 400
	n := 0
	opts := Options{Samples: total, Step: 5e-11, Steps: 5, Seed: 7, Workers: 2, Ctx: ctx,
		CheckpointEvery: 16,
		OnCheckpoint: func(*Checkpoint) {
			n++
			if n == 2 {
				cancelFn()
			}
		}}
	res, err := Run(sys, opts)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("expected cancellation, got %v", err)
	}
	if res == nil || res.SamplesRun == 0 || res.SamplesRun >= total {
		t.Fatalf("expected a partial result, got %+v", res)
	}
	if res.SamplesRun%mcChunk != 0 {
		t.Fatalf("partial prefix %d not chunk-aligned", res.SamplesRun)
	}
	ref, err := Run(sys, Options{Samples: res.SamplesRun, Step: 5e-11, Steps: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "partial mean", res.Mean, ref.Mean)
	bitsEqual(t, "partial variance", res.Variance, ref.Variance)
}

// Progress must advance monotonically with samples and steps.
func TestProgressAdvances(t *testing.T) {
	sys := testGrid()
	var p obs.Progress
	if _, err := Run(sys, Options{Samples: 20, Step: 5e-11, Steps: 4, Seed: 1, Progress: &p}); err != nil {
		t.Fatal(err)
	}
	// At least one mark per sample plus one per inner transient step.
	if got, min := p.Value(), uint64(20+20*4); got < min {
		t.Fatalf("progress %d < %d", got, min)
	}
}

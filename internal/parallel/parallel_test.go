package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-7); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-7) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 4, 13} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			const n = 997
			var hits [n]atomic.Int32
			err := ForEach(w, n, func(worker, i int) error {
				if worker < 0 || worker >= w {
					return fmt.Errorf("worker id %d out of range [0,%d)", worker, w)
				}
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("index %d visited %d times", i, c)
				}
			}
		})
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(_, _ int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(4, -3, func(_, _ int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for n <= 0")
	}
}

// TestSplitPartitions checks Split hands out min(workers, n)
// contiguous, balanced ranges that cover [0, n) exactly once.
func TestSplitPartitions(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 5}, {2, 13}, {3, 13}, {7, 13}, {4, 2}, {4, 0}} {
		t.Run(fmt.Sprintf("workers=%d/n=%d", tc.workers, tc.n), func(t *testing.T) {
			hits := make([]atomic.Int32, tc.n)
			var ranges atomic.Int32
			err := Split(tc.workers, tc.n, func(_, lo, hi int) error {
				ranges.Add(1)
				if size := hi - lo; size < tc.n/tc.workers || size > tc.n/tc.workers+1 || size == 0 {
					return fmt.Errorf("range [%d,%d) unbalanced for %d items on %d workers", lo, hi, tc.n, tc.workers)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(tc.workers, tc.n); int(ranges.Load()) != want {
				t.Errorf("%d ranges, want %d", ranges.Load(), want)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("index %d covered %d times", i, c)
				}
			}
		})
	}
}

func TestForEachFirstErrorStops(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := ForEach(4, 10_000, func(_, i int) error {
		calls.Add(1)
		if i == 57 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); c >= 10_000 {
		t.Errorf("pool did not stop early: %d calls", c)
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	err := ForEach(4, 100, func(_, i int) error {
		if i == 31 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T (%v), want *PanicError", err, err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError{Value: %v, stack %d bytes}", pe.Value, len(pe.Stack))
	}
}

func TestOrderedChunksMergesInOrder(t *testing.T) {
	for _, w := range []int{1, 2, 4, 9} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			const chunks = 203
			var got []int
			err := OrderedChunks(w, chunks, 4, func(_, c int) (int, error) {
				return c * c, nil
			}, func(c, v int) error {
				if v != c*c {
					return fmt.Errorf("chunk %d carried value %d", c, v)
				}
				got = append(got, c)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != chunks {
				t.Fatalf("merged %d chunks, want %d", len(got), chunks)
			}
			for i, c := range got {
				if c != i {
					t.Fatalf("merge order broken at position %d: chunk %d", i, c)
				}
			}
		})
	}
}

func TestOrderedChunksRunError(t *testing.T) {
	boom := errors.New("run failed")
	var merged atomic.Int64
	err := OrderedChunks(4, 500, 4, func(_, c int) (int, error) {
		if c == 123 {
			return 0, boom
		}
		return c, nil
	}, func(_, _ int) error {
		merged.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want run error", err)
	}
	if merged.Load() > 123 {
		t.Errorf("merged %d chunks past the failure point", merged.Load())
	}
}

func TestOrderedChunksMergeError(t *testing.T) {
	boom := errors.New("merge failed")
	err := OrderedChunks(4, 500, 4, func(_, c int) (int, error) {
		return c, nil
	}, func(c, _ int) error {
		if c == 200 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want merge error", err)
	}
}

func TestOrderedChunksPanicInRun(t *testing.T) {
	err := OrderedChunks(4, 100, 4, func(_, c int) (int, error) {
		if c == 42 {
			panic("chunk panic")
		}
		return c, nil
	}, func(_, _ int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T (%v), want *PanicError", err, err)
	}
}

// TestOrderedChunksDeterministicSum is the primitive's contract in
// miniature: a floating-point reduction merged in chunk order must be
// bit-identical for every worker count.
func TestOrderedChunksDeterministicSum(t *testing.T) {
	const chunks = 64
	sumFor := func(workers int) float64 {
		total := 0.0
		err := OrderedChunks(workers, chunks, 4, func(_, c int) (float64, error) {
			s := 0.0
			for i := 0; i < 1000; i++ {
				s += 1.0 / float64(c*1000+i+1)
			}
			return s, nil
		}, func(_ int, v float64) error {
			total += v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	ref := sumFor(1)
	for _, w := range []int{2, 4, 8} {
		if got := sumFor(w); got != ref {
			t.Errorf("workers=%d sum %.17g != serial %.17g", w, got, ref)
		}
	}
}

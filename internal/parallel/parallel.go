// Package parallel is the repo's stdlib-only worker-pool layer. It
// exists to make the embarrassingly-parallel hot loops (Monte Carlo
// sampling, the §5.1 decoupled column chunks, the coupled block
// apply) run on every core while keeping results bit-identical to the
// serial path:
//
//   - Work is partitioned by *index*, never by worker: chunk and shard
//     boundaries depend only on the problem size, so the same item is
//     always computed from the same inputs regardless of worker count.
//     Split's per-worker ranges are the one exception, for batched
//     solves whose per-column arithmetic does not depend on the batch.
//   - OrderedChunks merges chunk results in ascending chunk order, so
//     floating-point reductions associate identically for 1 and N
//     workers.
//   - Panics inside workers are captured and returned as *PanicError
//     instead of crashing the process from an anonymous goroutine.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n itself when positive,
// otherwise GOMAXPROCS. Every Options.Workers field in the repo funnels
// through this so "0 means all cores" is defined in exactly one place.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered inside a worker so callers see an
// ordinary error with the original stack attached.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v\n%s", e.Value, e.Stack)
}

// call runs fn, converting a panic into a *PanicError.
func call(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// ForEach runs fn(worker, i) for every i in [0, n), spread across up to
// `workers` goroutines. Indices are handed out dynamically (atomic
// counter), so it load-balances uneven work; the worker id is stable
// within a goroutine and always < Workers(workers), so callers may
// index per-worker scratch by it. The first error (or panic) stops the
// pool early and is returned. With one worker (or n <= 1) everything
// runs on the calling goroutine with worker id 0.
//
// ForEach gives no ordering guarantee between items: use it only when
// items write to disjoint outputs.
func ForEach(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := call(func() error { return fn(0, i) }); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(worker int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(func() error { return fn(worker, i) }); err != nil {
					fail(err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	return firstErr
}

// Split runs fn(worker, lo, hi) over min(Workers(workers), n)
// contiguous ranges that partition [0, n), their sizes differing by at
// most one, through ForEach. Unlike ForEach's per-index units the
// ranges depend on the worker count, so Split is only for items whose
// results do not depend on which range holds them — batched solves,
// whose per-column arithmetic is independent of the batch.
func Split(workers, n int, fn func(worker, lo, hi int) error) error {
	w := Workers(workers)
	if w > n {
		w = n
	}
	return ForEach(w, w, func(worker, c int) error {
		return fn(worker, c*n/w, (c+1)*n/w)
	})
}

// OrderedChunks runs `run(worker, chunk)` for every chunk in
// [0, numChunks) across up to `workers` goroutines and feeds the
// results to `merge(chunk, value)` in strictly ascending chunk order on
// a single goroutine. This is the deterministic-reduction primitive:
// as long as chunk boundaries are a function of the problem size only,
// the merged result is bit-identical for any worker count.
//
// `window` bounds how many chunks may be in flight or parked awaiting
// their turn at the merger (back-pressure so a slow early chunk cannot
// pile up unbounded results); it is clamped to at least workers+1.
// The first error from run or merge (panics included) cancels the pool
// and is returned.
func OrderedChunks[T any](workers, numChunks, window int, run func(worker, chunk int) (T, error), merge func(chunk int, v T) error) error {
	if numChunks <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > numChunks {
		w = numChunks
	}
	if w <= 1 {
		// Serial fast path: same run→merge sequence the parallel path
		// produces, without goroutines.
		for c := 0; c < numChunks; c++ {
			v, err := runChunk(run, 0, c)
			if err != nil {
				return err
			}
			if err := call(func() error { return merge(c, v) }); err != nil {
				return err
			}
		}
		return nil
	}
	if window < w+1 {
		window = w + 1
	}
	if window > numChunks {
		window = numChunks
	}

	type result struct {
		chunk int
		v     T
	}
	var (
		tickets  = make(chan struct{}, window)
		results  = make(chan result, window)
		quit     = make(chan struct{})
		quitOnce sync.Once
		firstErr error
		errOnce  sync.Once
		next     atomic.Int64
		wg       sync.WaitGroup
		mergerWG sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		quitOnce.Do(func() { close(quit) })
	}
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}

	// Merger: holds early-arriving chunks in `pending` and applies them
	// in ascending order, releasing one ticket per merged chunk.
	mergerWG.Add(1)
	go func() {
		defer mergerWG.Done()
		pending := make(map[int]T, window)
		want, done := 0, 0
		for done < numChunks {
			select {
			case r := <-results:
				pending[r.chunk] = r.v
			case <-quit:
				return
			}
			for {
				v, ok := pending[want]
				if !ok {
					break
				}
				delete(pending, want)
				if err := call(func() error { return merge(want, v) }); err != nil {
					fail(err)
					return
				}
				want++
				done++
				select {
				case tickets <- struct{}{}:
				default:
				}
			}
		}
	}()

	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-tickets:
				case <-quit:
					return
				}
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				v, err := runChunk(run, worker, c)
				if err != nil {
					fail(err)
					return
				}
				select {
				case results <- result{chunk: c, v: v}:
				case <-quit:
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	// If a worker failed it already closed quit, so the merger cannot
	// block; otherwise every result has been queued and the merger
	// drains to completion. Either way this wait terminates.
	mergerWG.Wait()
	quitOnce.Do(func() { close(quit) })
	return firstErr
}

func runChunk[T any](run func(worker, chunk int) (T, error), worker, chunk int) (v T, err error) {
	err = call(func() error {
		var e error
		v, e = run(worker, chunk)
		return e
	})
	return v, err
}

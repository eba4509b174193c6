// Package par provides the bounded worker pool the module shares. Every
// parallel fan-out — rxchain config sweeps, figure cells, fleet and
// network rounds, batch solves, serve's shard stages — goes through
// For/ForErr, so the whole repo has exactly one concurrency idiom to
// audit: a GOMAXPROCS-bounded pool pulling indices off an atomic
// counter, with results written to caller-owned, index-addressed slots.
//
// Determinism contract: For(workers, n, f) calls f(i) exactly once for
// every i in [0, n). Which goroutine runs which index (and in what
// order) is unspecified, so f must write only to state owned by index i;
// merge in index order after For returns. Under that discipline the
// outcome is byte-identical at any worker count — the property the
// golden bit-identity tests pin.
package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs f(i) for every i in [0, n) on a pool of at most workers
// goroutines and returns when all calls have finished. workers <= 0
// selects GOMAXPROCS; the pool never exceeds n. With one worker (or
// n <= 1) it degenerates to a plain sequential loop on the calling
// goroutine, so single-core runs pay no synchronization.
func For(workers, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ForErr is For with an error per index: all indices run (no early
// stop — cells are cheap and partial sweeps are never useful), and the
// non-nil errors are joined in index order, so the aggregate error is as
// deterministic as the results.
func ForErr(workers, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) {
		errs[i] = f(i)
	})
	return errors.Join(errs...)
}

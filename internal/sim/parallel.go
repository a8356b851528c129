package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count: workers <= 0 means GOMAXPROCS.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Parallel calls work(ctx, w, i) once for every index i in [0, n) on
// min(Workers(workers), n) goroutines and returns once every call has.
// Indices are handed out in ascending order; w is the calling goroutine's
// number in [0, workers), so no two concurrent calls share a w and a caller
// may keep per-w state. A result the caller writes into a slot indexed by
// i is therefore the same at every worker count, provided work reads only
// its index.
//
// Once ctx is done or a call has failed, no further index starts and the
// ctx handed to work is cancelled, so the indices that ran are a prefix.
// Parallel returns the error of the lowest index that failed other than by
// context.Canceled, which a cancel fans out to the calls still in flight;
// failing that, the lowest index's error; failing that, ctx.Err(). A nil
// ctx means context.Background.
func Parallel(ctx context.Context, n, workers int, work func(ctx context.Context, w, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = min(Workers(workers), n)
	if workers <= 0 {
		return ctx.Err()
	}
	run, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The check comes before the take, so an index taken is an
			// index run: a cancel can only stop the indices above it.
			for run.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := work(run, w, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return ctx.Err()
}

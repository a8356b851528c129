package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once and its slot holds the same value at every
// worker count, 0 (GOMAXPROCS) included.
func TestParallelSlotsIndependentOfWorkers(t *testing.T) {
	const n = 1000
	var want []int64
	for _, workers := range []int{1, 0, 2, 8} {
		got := make([]int64, n)
		calls := make([]atomic.Int32, n)
		if err := Parallel(context.Background(), n, workers, func(_ context.Context, _, i int) error {
			calls[i].Add(1)
			got[i] = ChunkSeed(42, i)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// A context done before the call starts no index and is what returns.
func TestParallelPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := Parallel(ctx, 100, workers, func(context.Context, int, int) error {
			calls.Add(1)
			return nil
		})
		if err != context.Canceled || calls.Load() != 0 {
			t.Fatalf("workers=%d: err %v after %d calls, want context.Canceled after 0", workers, err, calls.Load())
		}
	}
}

// No index, no goroutine: the empty call allocates nothing, where starting
// a goroutine would allocate its closure.
func TestParallelEmptyStartsNoGoroutine(t *testing.T) {
	work := func(context.Context, int, int) error {
		t.Error("work called for n == 0")
		return nil
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := Parallel(context.Background(), 0, 8, work); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("Parallel over no index allocates %.0f objects, want 0", allocs)
	}
}

// After a failure no index above the largest one in flight starts. Every
// call but the failing one waits for the cancel, so when index k fails the
// four workers hold at most indices 0-3 and at least 0-k; the ones below k
// return context.Canceled, which must not mask k's error.
func TestParallelStopsAfterAFailure(t *testing.T) {
	const workers, n = 4, 64
	boom := errors.New("boom")
	for k := 0; k < workers; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var started [n]atomic.Bool
		err := Parallel(ctx, n, workers, func(ctx context.Context, _, i int) error {
			started[i].Store(true)
			if i == k {
				return fmt.Errorf("index %d: %w", i, boom)
			}
			<-ctx.Done()
			return ctx.Err()
		})
		cancel()
		if !errors.Is(err, boom) {
			t.Fatalf("k=%d: err = %v, want index %d's boom", k, err, k)
		}
		for i := range started {
			if i <= k && !started[i].Load() {
				t.Fatalf("k=%d: index %d never started; an index taken is an index run", k, i)
			}
			if i >= workers && started[i].Load() {
				t.Fatalf("k=%d: index %d started, but at most 0-%d were in flight", k, i, workers-1)
			}
		}
	}
}

// With no failure but context.Canceled, the lowest index's error returns;
// with no failure at all, the caller's ctx.Err().
func TestParallelErrorFallbacks(t *testing.T) {
	err := Parallel(context.Background(), 3, 1, func(_ context.Context, _, i int) error {
		return fmt.Errorf("index %d: %w", i, context.Canceled)
	})
	if err == nil || err.Error() != "index 0: context canceled" {
		t.Fatalf("all-cancelled err = %v, want index 0's", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	err = Parallel(ctx, 10, 1, func(context.Context, int, int) error {
		calls.Add(1)
		cancel()
		return nil
	})
	if err != context.Canceled || calls.Load() != 1 {
		t.Fatalf("caller cancel: err %v after %d calls, want context.Canceled after 1", err, calls.Load())
	}
}

// No two concurrent calls share a w, and every w is below the worker count.
func TestParallelWorkerNumbersAreExclusive(t *testing.T) {
	const workers = 4
	var busy [workers]atomic.Bool
	if err := Parallel(context.Background(), 400, workers, func(_ context.Context, w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("index %d: w = %d, want [0, %d)", i, w, workers)
		}
		if !busy[w].CompareAndSwap(false, true) {
			return fmt.Errorf("index %d: w = %d is already in a call", i, w)
		}
		runtime.Gosched()
		busy[w].Store(false)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

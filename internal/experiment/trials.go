package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Monte Carlo parallelism.
//
// Trials are partitioned into fixed-size chunks; each chunk gets its own
// rand.Rand seeded by sim.ChunkSeed(base seed, chunk index).
// The partitioning and seeding depend only on (seed, trials), never on the
// worker count, so a run with 16 workers counts exactly the same wins as a
// serial run — Monte Carlo tables stay byte-identical while regeneration
// scales with cores.

// trialChunkSize is the number of trials one derived rng serves. Large
// enough to amortise rng construction (rand.NewSource allocates ~5 KB of
// generator state), small enough to load-balance across workers.
const trialChunkSize = 1024

// RunTrials executes trials independent Monte Carlo trials across workers
// goroutines and returns how many reported success. workers <= 1 runs
// serially; the count is identical for every worker count because seeds
// derive from the chunk index, not the executing goroutine. trial must
// draw randomness only from the rng it is handed. Cancellation is checked
// between chunks (every trialChunkSize trials), so an interrupted run
// stops promptly and returns ctx's error.
func RunTrials(ctx context.Context, workers, trials int, seed int64, trial func(rng *rand.Rand) bool) (int, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("experiment: non-positive trials %d", trials)
	}
	if trial == nil {
		return 0, fmt.Errorf("experiment: nil trial function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	nChunks := (trials + trialChunkSize - 1) / trialChunkSize
	runChunk := func(c int) int {
		rng := rand.New(rand.NewSource(sim.ChunkSeed(seed, c)))
		n := trialChunkSize
		if c == nChunks-1 {
			n = trials - c*trialChunkSize
		}
		wins := 0
		for i := 0; i < n; i++ {
			if trial(rng) {
				wins++
			}
		}
		return wins
	}
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		wins := 0
		for c := 0; c < nChunks; c++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			wins += runChunk(c)
		}
		return wins, nil
	}
	var (
		next  atomic.Int64
		total atomic.Int64
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				total.Add(int64(runChunk(c)))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return int(total.Load()), nil
}

// Result is one experiment's regeneration output, as produced by Run or
// RunConcurrent.
type Result struct {
	Experiment Experiment
	Table      *metrics.Table
	Rows       any
}

// RunConcurrent regenerates the given experiments across up to workers
// goroutines and returns their results in input order. Experiments are
// pure functions of Params, so concurrent regeneration produces the same
// tables as a serial loop — only wall-clock time changes. The first
// experiment error cancels the remaining ones and is returned, attributed
// to its experiment id.
func RunConcurrent(ctx context.Context, exps []Experiment, p Params, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]Result, len(exps))
	errs := make([]error, len(exps))
	if workers <= 1 {
		for i, e := range exps {
			tab, rows, err := e.Run(ctx, p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			results[i] = Result{Experiment: e, Table: tab, Rows: rows}
		}
		return results, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				// Registered experiments check ctx in their Run wrapper;
				// this guard covers hand-built Experiment values too, so
				// no queued work starts after a failure.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				tab, rows, err := exps[i].Run(ctx, p)
				if err != nil {
					errs[i] = err
					cancel() // remaining experiments stop at their ctx check
					continue
				}
				results[i] = Result{Experiment: exps[i], Table: tab, Rows: rows}
			}
		}()
	}
	wg.Wait()
	// Prefer the root cause over the context.Canceled errors the cancel
	// fanned out to the experiments still queued behind it.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		if !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

package experiment

import (
	"context"
	"fmt"
	"math/rand"

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
	nChunks := (trials + trialChunkSize - 1) / trialChunkSize
	wins := make([]int, nChunks)
	err := sim.Parallel(ctx, nChunks, max(workers, 1), func(_ context.Context, _, c int) error {
		rng := rand.New(rand.NewSource(sim.ChunkSeed(seed, c)))
		n, won := min(trialChunkSize, trials-c*trialChunkSize), 0
		for i := 0; i < n; i++ {
			if trial(rng) {
				won++
			}
		}
		wins[c] = won
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, w := range wins {
		total += w
	}
	return total, nil
}

// Result is one experiment's regeneration output, as RunConcurrent hands
// it on.
type Result struct {
	Experiment Experiment
	Table      *metrics.Table
	Rows       any
}

// RunConcurrent regenerates the given experiments across up to workers
// goroutines (<= 0 means GOMAXPROCS) and hands each result to emit in
// input order: emit(exps[i]'s result) is called once it and every earlier
// result are done, on the caller's goroutine, never concurrently.
// Experiments are pure functions of Params, so concurrent regeneration
// produces the same tables as a serial loop — only wall-clock time
// changes. The first experiment error cancels the remaining ones and is
// returned, attributed to its experiment id; every result emitted before
// it stays emitted, and none after it is.
func RunConcurrent(ctx context.Context, exps []Experiment, p Params, workers int, emit func(Result)) error {
	results := make([]Result, len(exps))
	// One send per experiment at most, so no worker ever blocks on it.
	done := make(chan int, len(exps))
	var runErr error
	go func() {
		runErr = sim.Parallel(ctx, len(exps), workers, func(ctx context.Context, _, i int) error {
			tab, rows, err := exps[i].Run(ctx, p)
			if err != nil {
				return fmt.Errorf("%s: %w", exps[i].ID, err)
			}
			results[i] = Result{Experiment: exps[i], Table: tab, Rows: rows}
			done <- i
			return nil
		})
		close(done)
	}()
	ready := make([]bool, len(exps))
	next := 0
	for i := range done {
		ready[i] = true
		for ; next < len(exps) && ready[next]; next++ {
			emit(results[next])
		}
	}
	return runErr
}

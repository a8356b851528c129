package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/nakamoto"
)

// The load-bearing property of the trial runner: the win count depends
// only on (seed, trials), never on the worker count — parallel Monte
// Carlo tables stay byte-identical to serial ones.
func TestRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	trial := func(rng *rand.Rand) bool { return rng.Float64() < 0.3 }
	for _, trials := range []int{1, 100, trialChunkSize, trialChunkSize + 1, 5000} {
		serial, err := RunTrials(nil, 1, trials, 42, trial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 8, 64} {
			got, err := RunTrials(context.Background(), workers, trials, 42, trial)
			if err != nil {
				t.Fatal(err)
			}
			if got != serial {
				t.Fatalf("trials=%d workers=%d: %d wins, serial %d", trials, workers, got, serial)
			}
		}
	}
	// Different seeds genuinely change the draw.
	a, _ := RunTrials(context.Background(), 4, 5000, 1, trial)
	b, _ := RunTrials(context.Background(), 4, 5000, 2, trial)
	if a == b {
		t.Fatalf("seeds 1 and 2 produced identical counts %d (suspicious derivation)", a)
	}
}

func TestRunTrialsRunsEveryTrialOnce(t *testing.T) {
	var calls atomic.Int64
	trials := 3*trialChunkSize + 17
	wins, err := RunTrials(context.Background(), 8, trials, 7, func(rng *rand.Rand) bool {
		calls.Add(1)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if wins != trials || int(calls.Load()) != trials {
		t.Fatalf("wins=%d calls=%d, want %d", wins, calls.Load(), trials)
	}
}

func TestRunTrialsValidation(t *testing.T) {
	if _, err := RunTrials(context.Background(), 1, 0, 7, func(*rand.Rand) bool { return true }); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := RunTrials(context.Background(), 1, 10, 7, nil); err == nil {
		t.Fatal("nil trial accepted")
	}
}

// Cancellation must stop in-flight trial batches (checked between
// chunks), not just queued experiments.
func TestRunTrialsHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: at most the claimed chunks run
	var calls atomic.Int64
	const trials = 100 * trialChunkSize
	for _, workers := range []int{1, 4} {
		calls.Store(0)
		if _, err := RunTrials(ctx, workers, trials, 7, func(*rand.Rand) bool {
			calls.Add(1)
			return true
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if int(calls.Load()) >= trials {
			t.Fatalf("workers=%d: all %d trials ran despite cancellation", workers, trials)
		}
	}
}

// The X4 Monte Carlo estimate must still track the analytic race when
// distributed: correctness of the parallel seed derivation, not just
// determinism.
func TestRunTrialsMatchesAnalyticRace(t *testing.T) {
	const q, z = 0.2, 3
	want, err := nakamoto.DoubleSpendProbabilityExact(q, z)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 60000
	wins, err := RunTrials(context.Background(), 8, trials, 5, func(rng *rand.Rand) bool {
		return nakamoto.DoubleSpendTrial(rng, q, z)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(wins) / float64(trials)
	if diff := got - want; diff < -0.02 || diff > 0.02 {
		t.Fatalf("simulated %v vs analytic %v", got, want)
	}
}

// collect runs RunConcurrent and returns what it emitted, in emit order.
func collect(ctx context.Context, exps []Experiment, p Params, workers int) ([]Result, error) {
	var out []Result
	err := RunConcurrent(ctx, exps, p, workers, func(res Result) { out = append(out, res) })
	return out, err
}

func TestRunConcurrentMatchesSerial(t *testing.T) {
	exps := All()
	p := Params{Seed: 7, Trials: 500, Scale: 50, Workers: 2}
	serial, err := collect(context.Background(), exps, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := collect(context.Background(), exps, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("result counts %d/%d, want %d", len(serial), len(parallel), len(exps))
	}
	for i := range serial {
		if serial[i].Experiment.ID != exps[i].ID || parallel[i].Experiment.ID != exps[i].ID {
			t.Fatalf("result %d out of order: %s / %s", i, serial[i].Experiment.ID, parallel[i].Experiment.ID)
		}
		if serial[i].Table.String() != parallel[i].Table.String() {
			t.Fatalf("%s: parallel table differs from serial", exps[i].ID)
		}
	}
}

func TestRunConcurrentPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		All()[0],
		{ID: "FAIL", Title: "always fails", Run: func(context.Context, Params) (*metrics.Table, any, error) {
			return nil, nil, boom
		}},
	}
	_, err := collect(context.Background(), exps, Params{Seed: 1, Trials: 10, Scale: 10}, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collect(ctx, All()[:3], Params{Seed: 1, Trials: 10, Scale: 10}, 2); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// A failure at index k emits exactly the results before it, in order:
// the in-order hand-off never skips past a hole, and every experiment
// below k was started before k, so none is cancelled. Experiment k fails
// only once the other workers hold experiments above it, which finish once
// the failure's cancel reaches them and must not be emitted.
func TestRunConcurrentEmitsThePrefixBeforeAFailure(t *testing.T) {
	boom := errors.New("boom")
	const n, workers = 12, 4
	for _, k := range []int{0, 1, 5, n - 1} {
		above := make(chan struct{}, n)
		exps := make([]Experiment, n)
		for i := range exps {
			exps[i] = Experiment{ID: fmt.Sprintf("E%d", i), Run: func(ctx context.Context, _ Params) (*metrics.Table, any, error) {
				switch {
				case i == k:
					for j := 0; j < min(workers-1, n-1-k); j++ {
						<-above
					}
					return nil, nil, boom
				case i > k:
					above <- struct{}{}
					<-ctx.Done()
				}
				return metrics.NewTable(fmt.Sprintf("t%d", i), "x"), i, nil
			}}
		}
		got, err := collect(context.Background(), exps, Params{Seed: 1, Trials: 10, Scale: 10}, workers)
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), fmt.Sprintf("E%d: ", k)) {
			t.Fatalf("k=%d: err = %v, want E%d's boom", k, err, k)
		}
		if len(got) != k {
			t.Fatalf("k=%d: emitted %d results, want %d", k, len(got), k)
		}
		for i, res := range got {
			if res.Rows != i {
				t.Fatalf("k=%d: emit %d carried experiment %v", k, i, res.Rows)
			}
		}
	}
}

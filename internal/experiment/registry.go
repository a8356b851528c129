package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Params carries the tunable inputs shared by every registered
// experiment. Experiments read only the knobs that apply to them; the
// zero value is invalid — start from DefaultParams.
type Params struct {
	// Seed drives all pseudo-randomness (sortition draws, Monte Carlo
	// trials, simulated schedulers).
	Seed int64
	// Trials is the Monte Carlo trial count for sampled probabilities.
	Trials int
	// Scale is the population/sweep size knob (e.g. Figure 1 tail miners).
	Scale int
	// Workers bounds the goroutines Monte Carlo experiments spread their
	// trials over (see RunTrials). 0 means serial; results are identical
	// for every worker count because per-chunk seeds derive from Seed and
	// the chunk index, not from scheduling.
	Workers int
}

// DefaultParams returns the canonical parameters that regenerate the
// published tables, spreading Monte Carlo trials over all available cores.
func DefaultParams() Params {
	return Params{Seed: 7, Trials: 20000, Scale: 1000, Workers: runtime.GOMAXPROCS(0)}
}

// Validate rejects parameter sets no experiment can run with.
func (p Params) Validate() error {
	if p.Trials <= 0 {
		return fmt.Errorf("experiment: non-positive trials %d", p.Trials)
	}
	if p.Scale <= 0 {
		return fmt.Errorf("experiment: non-positive scale %d", p.Scale)
	}
	if p.Workers < 0 {
		return fmt.Errorf("experiment: negative workers %d", p.Workers)
	}
	return nil
}

// RunFunc regenerates one experiment: the printable table plus the
// experiment's typed result rows (as `any`; callers that need the rows
// type-assert against the experiment's row type).
type RunFunc func(ctx context.Context, p Params) (*metrics.Table, any, error)

// Experiment is one self-registered table/figure generator.
type Experiment struct {
	// ID is the short stable identifier (F1, X2, CHURN, ...).
	ID string
	// Title is the one-line human description.
	Title string
	// Tags group experiments for filtering (paper, extension, mitigation,
	// bft, nakamoto, committee, ...).
	Tags []string
	// Run regenerates the experiment. It validates p and checks ctx
	// before starting; a cancellation arriving mid-run takes effect at
	// the next experiment boundary, not inside one.
	Run RunFunc
}

// HasTag reports whether the experiment carries the tag (case-insensitive).
func (e Experiment) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if strings.EqualFold(t, tag) {
			return true
		}
	}
	return false
}

var (
	registryOrder []string
	registryByID  = make(map[string]Experiment)
)

// Register adds an experiment to the registry. Every experiment
// self-registers at init time; cmd/experiments and bench_test.go iterate
// the same registry so they cannot drift. Registration errors are
// programmer errors and panic.
func Register(id, title string, tags []string, run RunFunc) {
	if id == "" || title == "" || run == nil {
		panic(fmt.Sprintf("experiment: incomplete registration %q", id))
	}
	key := strings.ToUpper(id)
	if _, dup := registryByID[key]; dup {
		panic(fmt.Sprintf("experiment: duplicate id %q", id))
	}
	wrapped := func(ctx context.Context, p Params) (*metrics.Table, any, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
		return run(ctx, p)
	}
	registryByID[key] = Experiment{ID: key, Title: title, Tags: tags, Run: wrapped}
	registryOrder = append(registryOrder, key)
}

// All returns every registered experiment in registration order (the
// order the paper presents them).
func All() []Experiment {
	out := make([]Experiment, 0, len(registryOrder))
	for _, id := range registryOrder {
		out = append(out, registryByID[id])
	}
	return out
}

// IDs returns every registered id in registration order.
func IDs() []string {
	return append([]string(nil), registryOrder...)
}

// Lookup finds an experiment by id (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	e, ok := registryByID[strings.ToUpper(strings.TrimSpace(id))]
	return e, ok
}

// WithTag returns the experiments carrying the tag, in registration order.
func WithTag(tag string) []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.HasTag(tag) {
			out = append(out, e)
		}
	}
	return out
}

// Tags returns every tag in use, sorted.
func Tags() []string {
	seen := make(map[string]bool)
	for _, e := range All() {
		for _, t := range e.Tags {
			seen[strings.ToLower(t)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

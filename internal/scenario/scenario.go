// Package scenario is the deterministic scenario engine: it composes
// registry churn (joins, leaves, power shifts, product-version
// migrations), vulnerability lifecycle events (disclosure, patch rollout
// waves) and adversary strategies (internal/adversary) into one event
// timeline on the internal/sim virtual clock, and drives core.Monitor
// assessments at every event and periodic tick. The output is a
// machine-readable trace (JSON lines or CSV; see Record) that replays
// byte-identically from (scenario, seed) — the property CI enforces by
// diffing two runs.
//
// The paper's claim is about diversity protecting replicated systems
// *over time*; the seed's Monitor could only watch a frozen population.
// Scenarios are the missing workload: named, replayable timelines where
// the population, the vulnerability surface and the adversary all move.
// A timeline's live block also runs a real BFT cluster (internal/bftlive
// over internal/simnet) on the run's clock and checks the monitor's
// predictions against what the wire does (live.go).
//
// Determinism discipline (the same one internal/sim and internal/simnet
// follow): a single scheduler owns virtual time and fires events in
// (time, scheduling order); all randomness comes from the scheduler's
// seeded RNG; assessment happens inline in event callbacks, never from a
// wall ticker. Per-scenario seeds derive from (base seed, scenario name),
// so a scenario's trace does not depend on which other scenarios run
// alongside it or on -parallel settings.
package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Def is one named scenario: metadata for listings plus the one program
// that says what a run does — a function from the run's RNG to a Timeline.
type Def struct {
	// Name is the stable identifier (kebab-case, e.g. "flash-churn").
	Name string
	// Title is the one-line human description.
	Title string
	// Tags group scenarios for listing (churn, vuln, adversary, ...).
	Tags []string
	// Horizon is the virtual duration the scenario runs for.
	Horizon time.Duration
	// Tick is the periodic assessment cadence; 0 defaults to Horizon/24.
	Tick time.Duration
	// Build returns the run's timeline, carrying the def's name and horizon.
	// rng is the run's own seeded RNG, for the scenarios whose operands are
	// drawn per seed (flash-churn's powers, committee-rotation's late
	// joiners); a def made by Timeline.Def ignores it and returns that
	// timeline. What Build draws it must draw in a fixed order: the run is a
	// pure function of (def, seed) only then.
	Build func(rng *rand.Rand) *Timeline
}

// TimelineAt builds the timeline a run at the base seed applies: the same
// Build, on an RNG seeded as the run's is. A def whose Build draws nothing
// returns the same timeline at every seed.
func (d Def) TimelineAt(baseSeed int64) *Timeline {
	return d.Build(sim.NewScheduler(DeriveSeed(baseSeed, d.Name)).Rand())
}

var (
	registryOrder  []string
	registryByName = make(map[string]Def)
)

// register adds a scenario to the registry. The library self-registers at
// init time, mirroring the experiment registry: cmd/scenarios, tests and
// benchmarks all iterate the same index so they cannot drift.
// Registration errors are programmer errors and panic.
//
// Validation matches what Lookup actually resolves: names are rejected
// when they are not already trimmed (a name with surrounding whitespace
// would register under a key Lookup's TrimSpace can never produce), and
// duplicates are checked on the trimmed, lowercased key. A negative Tick
// is rejected too — it would silently fall back to the Horizon/24 default
// at run time, hiding the typo.
func register(d Def) {
	if d.Name == "" || d.Title == "" || d.Horizon <= 0 {
		panic(fmt.Sprintf("scenario: incomplete registration %q", d.Name))
	}
	if d.Build == nil {
		panic(fmt.Sprintf("scenario: %q has no timeline", d.Name))
	}
	if d.Tick < 0 {
		panic(fmt.Sprintf("scenario: %q has negative tick %v", d.Name, d.Tick))
	}
	if strings.TrimSpace(d.Name) != d.Name {
		panic(fmt.Sprintf("scenario: name %q has surrounding whitespace", d.Name))
	}
	key := strings.ToLower(strings.TrimSpace(d.Name))
	if _, dup := registryByName[key]; dup {
		panic(fmt.Sprintf("scenario: duplicate name %q", d.Name))
	}
	registryByName[key] = d
	registryOrder = append(registryOrder, key)
}

// All returns every registered scenario in registration order.
func All() []Def {
	out := make([]Def, 0, len(registryOrder))
	for _, name := range registryOrder {
		out = append(out, registryByName[name])
	}
	return out
}

// Names returns every registered name in registration order.
func Names() []string {
	return append([]string(nil), registryOrder...)
}

// Lookup finds a scenario by name (case-insensitive).
func Lookup(name string) (Def, bool) {
	d, ok := registryByName[strings.ToLower(strings.TrimSpace(name))]
	return d, ok
}

// Tags returns every tag in use, sorted.
func Tags() []string {
	seen := make(map[string]bool)
	for _, d := range All() {
		for _, t := range d.Tags {
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

// DeriveSeed maps (base seed, scenario name) to the scenario's scheduler
// seed: an FNV-1a hash of the name mixed with the base through a
// SplitMix64 step (sim.ChunkSeed's chunk 0). Deriving per scenario —
// rather than sharing one RNG — is what makes a scenario's trace
// independent of which other scenarios run in the same invocation and of
// any -parallel setting.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	// Writing to an FNV hash never fails.
	_, _ = h.Write([]byte(strings.ToLower(name)))
	return sim.ChunkSeed(base^int64(h.Sum64()), 0)
}

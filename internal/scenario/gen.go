package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Generative scenarios: a profile is a family of timelines, and
// (profile, base seed, generation index) is a pure address into that
// family. Generation draws all randomness from one rng seeded by
// sim.ChunkSeed(DeriveSeed(base, "gen-"+profile), index) — the same
// two-level derivation the Monte Carlo trials use — so a sweep's timeline
// #317 is the same timeline whether it is generated by worker 1 of 1 or
// worker 7 of 16, and can be regenerated in isolation to replay or shrink
// a violation.

// GenProfile is one generator family. The gen hook fills Horizon, Tick and
// Events on a pre-named timeline, drawing randomness only from rng.
type GenProfile struct {
	Name  string
	Title string
	gen   func(rng *rand.Rand, tl *Timeline)
}

// Profiles lists the generator families in canonical order: the sweep
// assigns run i to profile i%len(Profiles()).
func Profiles() []GenProfile {
	return []GenProfile{
		{Name: "churn-heavy", Title: "relentless joins, leaves and power drift around a mid-life zero-day", gen: genChurnHeavy},
		{Name: "disclosure-storm", Title: "a stable fleet weathering a dense burst of disclosures", gen: genDisclosureStorm},
		{Name: "partition-flap", Title: "partitions and crashes flapping while a vulnerability window is open", gen: genPartitionFlap},
		{Name: "adaptive-adversary", Title: "an adaptive adversary probing every few hours as the surface shifts", gen: genAdaptiveAdversary},
		{Name: "lossy-wire", Title: "a live rotating cluster on degraded links, with a crash rotation must absorb", gen: genLossyWire},
	}
}

// LookupProfile finds a generator profile by name.
func LookupProfile(name string) (GenProfile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return GenProfile{}, false
}

// ProfileNames lists the profile names in canonical order.
func ProfileNames() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Generate emits timeline #index of the family at the given base seed. The
// result is sorted, validated and self-contained; a generator emitting an
// invalid timeline is a bug in the generator, not in the caller, and
// panics.
func (p GenProfile) Generate(baseSeed int64, index int) *Timeline {
	return p.generate(baseSeed, index, new(workerStore))
}

// generate is Generate on a worker's storage: the generator's source is the
// store's, re-seeded, and the events are appended into the store's event
// storage, which the timeline then shares until its run is over.
func (p GenProfile) generate(baseSeed int64, index int, st *workerStore) *Timeline {
	if p.gen == nil {
		panic(fmt.Sprintf("scenario: profile %q has no generator", p.Name))
	}
	rng := st.genRand(sim.ChunkSeed(DeriveSeed(baseSeed, "gen-"+p.Name), index))
	tl := &Timeline{
		Name:   fmt.Sprintf("gen-%s-%d-%04d", p.Name, baseSeed, index),
		Title:  p.Title,
		Tags:   []string{"generated", p.Name},
		Events: st.events[:0],
	}
	p.gen(rng, tl)
	tl.SortEvents()
	if err := tl.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: profile %q generated an invalid timeline: %v", p.Name, err))
	}
	return tl
}

// genPool is the component inventory generated configurations draw from.
// Multiple versions per product give disclosures version-specific targets.
var genPool = struct {
	os, runtime []ComponentSpec
}{
	os: []ComponentSpec{
		{Class: "operating-system", Name: "linux", Version: "6.1"},
		{Class: "operating-system", Name: "linux", Version: "5.15"},
		{Class: "operating-system", Name: "freebsd", Version: "14.0"},
		{Class: "operating-system", Name: "openbsd", Version: "7.4"},
		{Class: "operating-system", Name: "illumos", Version: "r151048"},
		{Class: "operating-system", Name: "netbsd", Version: "10.0"},
	},
	runtime: []ComponentSpec{
		{Class: "runtime", Name: "jvm", Version: "21"},
		{Class: "runtime", Name: "go", Version: "1.23"},
		{Class: "runtime", Name: "node", Version: "20"},
		{Class: "runtime", Name: "cpython", Version: "3.12"},
	},
}

// genCtx tracks the generator's view of the run so emitted events always
// reference replicas that exist: alive are votable replicas, parked and
// down are currently partitioned/crashed (mutually exclusive per replica).
type genCtx struct {
	rng    *rand.Rand
	tl     *Timeline
	nextID int
	alive  []string
	parked []string
	down   []string
}

func newGenCtx(rng *rand.Rand, tl *Timeline, horizon, tick time.Duration) *genCtx {
	tl.Horizon = Duration(horizon)
	tl.Tick = Duration(tick)
	return &genCtx{rng: rng, tl: tl}
}

func (g *genCtx) emit(ev Event) { g.tl.Events = append(g.tl.Events, ev) }

// config draws a two-component (OS + runtime) configuration.
func (g *genCtx) config() []ComponentSpec {
	return []ComponentSpec{
		genPool.os[g.rng.Intn(len(genPool.os))],
		genPool.runtime[g.rng.Intn(len(genPool.runtime))],
	}
}

// power draws a voting power on a 0.5 grid in [0.5, 4] — coarse values keep
// timeline JSON readable and fractions exactly representable.
func (g *genCtx) power() float64 { return float64(1+g.rng.Intn(8)) / 2 }

// latency draws a patch adoption lag on an hour grid in [0, 24h).
func (g *genCtx) latency() Duration { return Duration(time.Duration(g.rng.Intn(24)) * time.Hour) }

func (g *genCtx) join(at Duration) {
	id := fmt.Sprintf("g-%02d", g.nextID)
	g.nextID++
	g.alive = append(g.alive, id)
	g.emit(Event{Op: OpJoin, At: at, ID: id, Config: g.config(), Power: g.power(), PatchLatency: g.latency()})
}

// pick removes and returns a random alive replica; ok is false when the
// alive set is empty.
func (g *genCtx) pick() (string, bool) {
	if len(g.alive) == 0 {
		return "", false
	}
	i := g.rng.Intn(len(g.alive))
	return g.alive[i], true
}

func (g *genCtx) remove(id string) {
	for i, a := range g.alive {
		if a == id {
			g.alive = append(g.alive[:i], g.alive[i+1:]...)
			return
		}
	}
}

// subset draws 1..max distinct alive replicas (and removes them from the
// alive set so a concurrent fault cannot target them twice).
func (g *genCtx) subset(max int) []string {
	if max > len(g.alive) {
		max = len(g.alive)
	}
	if max <= 0 {
		return nil
	}
	n := 1 + g.rng.Intn(max)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, _ := g.pick()
		g.remove(id)
		out = append(out, id)
	}
	return out
}

// disclose emits a disclosure against a random pool component (which the
// current fleet may or may not run — misses are as informative as hits).
func (g *genCtx) disclose(at, patchAfter Duration, n int) {
	target := genPool.os[g.rng.Intn(len(genPool.os))]
	if g.rng.Intn(3) == 0 {
		target = genPool.runtime[g.rng.Intn(len(genPool.runtime))]
	}
	g.emit(Event{Op: OpDisclose, At: at, Vuln: &VulnSpec{
		ID:        fmt.Sprintf("CVE-GEN-%04d", n),
		Class:     target.Class,
		Product:   target.Name,
		Version:   target.Version,
		Disclosed: at,
		PatchAt:   at + patchAfter,
		Severity:  float64(1+g.rng.Intn(10)) / 10,
	}})
}

// strategy draws an adversary strategy: exploit or corruption with a small
// budget, or an adaptive composition of both.
func (g *genCtx) strategy() *StrategySpec {
	budget := func() int { return 1 + g.rng.Intn(3) }
	switch g.rng.Intn(3) {
	case 0:
		return &StrategySpec{Kind: "exploit", Budget: budget()}
	case 1:
		return &StrategySpec{Kind: "corruption", Budget: budget()}
	default:
		return &StrategySpec{Kind: "adaptive", Strategies: []StrategySpec{
			{Kind: "exploit", Budget: budget()},
			{Kind: "corruption", Budget: budget()},
		}}
	}
}

// hours draws a duration on an hour grid in [lo, hi) hours.
func (g *genCtx) hours(lo, hi int) Duration {
	return Duration(time.Duration(lo+g.rng.Intn(hi-lo)) * time.Hour)
}

const genDay = 24 * time.Hour

// genChurnHeavy: a mid-size fleet with joins, leaves, power drift and
// migrations every few hours for twenty days, one zero-day in the middle,
// probes before and after the patch ships.
func genChurnHeavy(rng *rand.Rand, tl *Timeline) {
	g := newGenCtx(rng, tl, 20*genDay, 12*time.Hour)
	for i, n := 0, 10+rng.Intn(8); i < n; i++ {
		g.join(g.hours(0, 12))
	}
	g.disclose(Duration(5*genDay)+g.hours(0, 24), Duration(3*genDay), 0)
	for at := Duration(genDay); at < Duration(19*genDay); at += g.hours(4, 22) {
		switch g.rng.Intn(10) {
		case 0, 1, 2, 3:
			g.join(at)
		case 4, 5:
			// Keep a quorum-worthy core so the fleet never empties.
			if len(g.alive) > 6 {
				id, _ := g.pick()
				g.remove(id)
				g.emit(Event{Op: OpLeave, At: at, ID: id})
			}
		case 6, 7:
			if id, ok := g.pick(); ok {
				g.emit(Event{Op: OpPower, At: at, ID: id, Power: g.power()})
			}
		default:
			if id, ok := g.pick(); ok {
				g.emit(Event{Op: OpMigrate, At: at, ID: id, Config: g.config()})
			}
		}
	}
	g.emit(Event{Op: OpProbe, At: Duration(6 * genDay), Strategy: g.strategy()})
	g.emit(Event{Op: OpProbe, At: Duration(12 * genDay), Strategy: g.strategy()})
}

// genDisclosureStorm: a fixed fleet, then eight to sixteen disclosures with
// staggered patch windows landing over two weeks, probed throughout.
func genDisclosureStorm(rng *rand.Rand, tl *Timeline) {
	g := newGenCtx(rng, tl, 15*genDay, 12*time.Hour)
	for i, n := 0, 12+rng.Intn(6); i < n; i++ {
		g.join(g.hours(0, 6))
	}
	// Sixteen gaps of up to 29h can run past the horizon; the storm ends
	// there (an event beyond the horizon is not a valid timeline).
	at := Duration(genDay)
	for i, n := 0, 8+rng.Intn(9); i < n && at <= tl.Horizon; i++ {
		g.disclose(at, Duration(genDay)+g.hours(0, 72), i)
		at += g.hours(6, 30)
	}
	for p := Duration(2 * genDay); p < Duration(15*genDay); p += Duration(3 * genDay) {
		g.emit(Event{Op: OpProbe, At: p, Strategy: g.strategy()})
	}
}

// genPartitionFlap: partitions and crashes cutting random subsets in
// non-overlapping windows while a disclosure's exploit window is open.
func genPartitionFlap(rng *rand.Rand, tl *Timeline) {
	g := newGenCtx(rng, tl, 10*genDay, 6*time.Hour)
	for i, n := 0, 10+rng.Intn(6); i < n; i++ {
		g.join(g.hours(0, 4))
	}
	g.disclose(Duration(2*genDay), Duration(5*genDay), 0)
	at := Duration(genDay)
	for at < Duration(9*genDay) {
		dur := g.hours(4, 24)
		if g.rng.Intn(2) == 0 {
			ids := g.subset(len(g.alive) / 3)
			if len(ids) > 0 {
				g.emit(Event{Op: OpPartition, At: at, IDs: ids})
				g.emit(Event{Op: OpHeal, At: at + dur})
				g.alive = append(g.alive, ids...)
			}
		} else {
			ids := g.subset(len(g.alive) / 4)
			if len(ids) > 0 {
				g.emit(Event{Op: OpCrash, At: at, IDs: ids})
				g.emit(Event{Op: OpRestore, At: at + dur})
				g.alive = append(g.alive, ids...)
			}
		}
		at += dur + g.hours(2, 12)
	}
	g.emit(Event{Op: OpProbe, At: Duration(5 * genDay), Strategy: g.strategy()})
}

// genLossyWire: an equal-power fleet on a live cluster with rotation
// enabled, probed every five minutes over a two-hour horizon — wire
// timescales, not the multi-day analytic ones. Degraded links all touch
// the last two replicas, so the first n-2 form a clean core of at least
// quorum size and commits stay deterministic; a mid-run crash — of the
// initial primary half the time — forces a view change the probes must
// survive. The view-liveness invariant is the acceptance bar: no probe
// may stall when the view-aware model predicted liveness.
func genLossyWire(rng *rand.Rand, tl *Timeline) {
	g := newGenCtx(rng, tl, 2*time.Hour, 10*time.Minute)
	minute := func(m int) Duration { return Duration(time.Duration(m) * time.Minute) }
	n := 10 + rng.Intn(3) // quorum 2n/3+1 leaves three spares for n in 10..12
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("g-%02d", i)
		g.alive = append(g.alive, id)
		// Equal power and zero patch latency: the live harness requires the
		// equal-power contract, and there are no disclosures to patch.
		g.emit(Event{Op: OpJoin, At: 0, ID: id, Config: g.config(), Power: 1})
	}
	tl.Live = &LiveSpec{
		StartAt:       minute(5),
		ProbeEvery:    minute(5),
		ProbeDeadline: Duration(time.Minute),
		ViewTimeout:   Duration(10 * time.Second),
	}
	// Degrade one to three links, each touching a spare; restore some later.
	// Pairs are tracked in emission order (never a map range: generation
	// must be deterministic) and deduplicated under endpoint swap so a
	// twice-degraded link is restored at most once.
	lossy := []string{g.alive[n-2], g.alive[n-1]}
	var degraded [][2]string
	seen := map[[2]string]bool{}
	for i, k := 0, 1+rng.Intn(3); i < k; i++ {
		a := lossy[rng.Intn(2)]
		b := a
		for b == a {
			b = g.alive[rng.Intn(n)]
		}
		fault := &FaultSpec{Drop: float64(1+rng.Intn(8)) / 20} // 0.05 .. 0.40
		if rng.Intn(2) == 0 {
			fault.ExtraLatency = Duration(time.Duration(5+5*rng.Intn(6)) * time.Millisecond)
			fault.Jitter = Duration(time.Duration(5*rng.Intn(7)) * time.Millisecond)
		}
		if rng.Intn(2) == 0 {
			fault.Duplicate = float64(rng.Intn(5)) / 20
		}
		if rng.Intn(2) == 0 {
			fault.Reorder = float64(rng.Intn(7)) / 20
		}
		g.emit(Event{Op: OpDegrade, At: minute(10 + rng.Intn(50)), IDs: []string{a, b}, Fault: fault})
		key := [2]string{a, b}
		if b < a {
			key = [2]string{b, a}
		}
		if !seen[key] {
			seen[key] = true
			degraded = append(degraded, [2]string{a, b})
		}
	}
	for _, pair := range degraded {
		if rng.Intn(2) == 0 {
			g.emit(Event{Op: OpRestoreLink, At: minute(70 + rng.Intn(40)), IDs: []string{pair[0], pair[1]}})
		}
	}
	// One crash inside the spare budget: the initial primary (g-00) half the
	// time — forcing a rotation — otherwise one of the lossy spares.
	victim := g.alive[0]
	if rng.Intn(2) == 0 {
		victim = lossy[rng.Intn(2)]
	}
	crashAt := 30 + rng.Intn(40)
	g.emit(Event{Op: OpCrash, At: minute(crashAt), IDs: []string{victim}})
	g.emit(Event{Op: OpRestore, At: minute(crashAt + 10 + rng.Intn(20)), IDs: []string{victim}})
}

// genAdaptiveAdversary: a slowly churning fleet under two or three
// disclosures, probed every half day to two days by freshly drawn
// strategies — the adversary re-planning as the surface moves.
func genAdaptiveAdversary(rng *rand.Rand, tl *Timeline) {
	g := newGenCtx(rng, tl, 12*genDay, 12*time.Hour)
	for i, n := 0, 12+rng.Intn(6); i < n; i++ {
		g.join(g.hours(0, 8))
	}
	for i := 0; i < 2+rng.Intn(2); i++ {
		g.disclose(Duration(time.Duration(2+3*i)*genDay)+g.hours(0, 12), Duration(2*genDay)+g.hours(0, 48), i)
	}
	for at := Duration(genDay); at < Duration(12*genDay); at += g.hours(12, 48) {
		g.emit(Event{Op: OpProbe, At: at, Strategy: g.strategy()})
	}
	for at := Duration(2 * genDay); at < Duration(11*genDay); at += g.hours(24, 60) {
		if id, ok := g.pick(); ok && g.rng.Intn(2) == 0 {
			g.emit(Event{Op: OpMigrate, At: at, ID: id, Config: g.config()})
		}
	}
}

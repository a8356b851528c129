package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/config"
	"repro/internal/vuln"
)

// The named scenario library. Every scenario self-registers at init time,
// mirroring the experiment registry, so cmd/scenarios list, the tests
// and the benchmarks iterate one index. Each is a Timeline: events are
// listed in the order same-instant ones must fire, then sorted by instant.
func init() {
	Register(flashChurn())
	Register(monocultureDrift())
	Register(zeroDayUnderPartition())
	Register(staggeredPatchRace())
	Register(adaptiveAdversary())
	Register(committeeRotation())
}

const day = 24 * time.Hour

// osSpec is a single-component OS configuration.
func osSpec(name, version string) []ComponentSpec {
	return []ComponentSpec{{Class: config.ClassOperatingSystem.String(), Name: name, Version: version}}
}

// osCryptoSpec pairs an OS with a crypto library — the staggered-patch-race
// stack.
func osCryptoSpec(osName, osVersion, lib, libVersion string) []ComponentSpec {
	return append(osSpec(osName, osVersion), ComponentSpec{Class: config.ClassCryptoLibrary.String(), Name: lib, Version: libVersion})
}

var libraryOSes = []struct{ name, version string }{
	{"ubuntu", "22.04"}, {"debian", "12"}, {"fedora", "38"}, {"freebsd", "13.2"}, {"openbsd", "7.3"},
}

// Event literals of the ops the library lists by the dozen.

func join(at time.Duration, id string, cfg []ComponentSpec, power float64, patchLatency time.Duration) Event {
	return Event{Op: OpJoin, At: Duration(at), ID: id, Config: cfg, Power: power, PatchLatency: Duration(patchLatency)}
}

func migrate(at time.Duration, id string, cfg []ComponentSpec) Event {
	return Event{Op: OpMigrate, At: Duration(at), ID: id, Config: cfg}
}

func disclose(v vuln.Vulnerability) Event {
	spec := NewVulnSpec(v)
	return Event{Op: OpDisclose, At: spec.Disclosed, Vuln: &spec}
}

// exploitProbe is a probe by an adversary with the given exploit budget.
func exploitProbe(at time.Duration, budget int) Event {
	return Event{Op: OpProbe, At: Duration(at), Strategy: &StrategySpec{Kind: "exploit", Budget: budget}}
}

// listed is the def of a library timeline: head carries everything but the
// events, which each run lists afresh and flash-churn and committee-rotation
// draw from the run's RNG. Listing per run keeps ~250 events out of the
// registry, and so out of every process's live heap: a `scenarios sweep` job
// runs at the GC's 4 MB floor, where holding them cost it 10 % of its wall time.
func listed(head Timeline, events func(rng *rand.Rand) []Event) Def {
	def := head.Def()
	def.Build = func(rng *rand.Rand) *Timeline {
		tl := head
		tl.Events = events(rng)
		tl.SortEvents()
		return &tl
	}
	return def
}

// flashChurn: a diverse fleet absorbs a flash mob of identically
// configured joiners, a zero-day lands on the mob's product mid-stay, and
// the mob drains away. Tests that assessment tracks rapid monoculture
// spikes in both directions.
func flashChurn() Def {
	return listed(Timeline{
		Name:    "flash-churn",
		Title:   "identically-configured join flood, zero-day mid-stay, mass exit",
		Tags:    []string{"churn", "vuln"},
		Horizon: Duration(10 * day),
		Tick:    Duration(12 * time.Hour),
	}, func(rng *rand.Rand) []Event {
		var evs []Event
		// Base fleet: 30 replicas, 6 per OS, joining through hour one.
		for i := 0; i < 30; i++ {
			os := libraryOSes[i%len(libraryOSes)]
			evs = append(evs, join(time.Duration(i)*2*time.Minute, fmt.Sprintf("base-%02d", i),
				osSpec(os.name, os.version), float64(5+rng.Intn(20)), time.Duration(i%4)*12*time.Hour))
		}
		// Day 3: 40 ubuntu joiners inside two hours.
		for i := 0; i < 40; i++ {
			evs = append(evs, join(3*day+time.Duration(i)*3*time.Minute, fmt.Sprintf("mob-%02d", i),
				osSpec("ubuntu", "22.04"), float64(3+rng.Intn(10)), 24*time.Hour))
		}
		// Day 4: zero-day on the mob's product.
		evs = append(evs, disclose(vuln.Vulnerability{
			ID: "CVE-FLASH-0001", Class: config.ClassOperatingSystem,
			Product: "ubuntu", Version: "22.04",
			Disclosed: 4 * day, PatchAt: 4*day + 36*time.Hour, Severity: 0.9,
		}))
		// Day 5: three quarters of the mob leaves over six hours.
		for i := 0; i < 30; i++ {
			evs = append(evs, Event{Op: OpLeave, At: Duration(5*day + time.Duration(i)*12*time.Minute), ID: fmt.Sprintf("mob-%02d", i)})
		}
		// Daily probes with a two-exploit budget.
		for d := 1; d <= 9; d++ {
			evs = append(evs, exploitProbe(time.Duration(d)*day, 2))
		}
		return evs
	})
}

// monocultureDrift: a balanced fleet slowly migrates to one fashionable
// product version; entropy decays monotonically until a disclosure on the
// dominant product shows what the drift cost. The paper's "software
// monoculture" failure mode as a timeline.
func monocultureDrift() Def {
	return listed(Timeline{
		Name:    "monoculture-drift",
		Title:   "gradual migration to one product erodes entropy until a disclosure lands",
		Tags:    []string{"churn", "migration", "vuln"},
		Horizon: Duration(30 * day),
		Tick:    Duration(day),
	}, func(*rand.Rand) []Event {
		var evs []Event
		// 40 replicas, 8 per OS.
		for i := 0; i < 40; i++ {
			os := libraryOSes[i%len(libraryOSes)]
			evs = append(evs, join(0, fmt.Sprintf("r-%02d", i), osSpec(os.name, os.version), 10, time.Duration(i%3)*day))
		}
		// One migration to linux-lts every 12 hours: 30 of 40 drift.
		for i := 0; i < 30; i++ {
			evs = append(evs, migrate(12*time.Hour+time.Duration(i)*12*time.Hour, fmt.Sprintf("r-%02d", i), osSpec("linux-lts", "6.1")))
		}
		// Day 21: the fashionable product turns out vulnerable.
		evs = append(evs, disclose(vuln.Vulnerability{
			ID: "CVE-DRIFT-0001", Class: config.ClassOperatingSystem,
			Product: "linux-lts", Version: "6.1",
			Disclosed: 21 * day, PatchAt: 23 * day, Severity: 1,
		}))
		for d := 2; d <= 28; d += 2 {
			evs = append(evs, exploitProbe(time.Duration(d)*day, 1))
		}
		return evs
	})
}

// zeroDayUnderPartition: a partition silences the fleet's most
// diversity-carrying island exactly when a zero-day lands on the majority
// side — the compound failure the paper's availability/safety trade-off
// warns about.
func zeroDayUnderPartition() Def {
	return listed(Timeline{
		Name:    "zero-day-under-partition",
		Title:   "partition removes a diverse island while a zero-day hits the majority",
		Tags:    []string{"partition", "vuln"},
		Horizon: Duration(7 * day),
		Tick:    Duration(6 * time.Hour),
	}, func(*rand.Rand) []Event {
		oses := []struct{ name, version string }{
			{"ubuntu", "22.04"}, {"freebsd", "13.2"}, {"openbsd", "7.3"},
		}
		var evs []Event
		for i := 0; i < 24; i++ {
			os := oses[i/8]
			evs = append(evs, join(0, fmt.Sprintf("%s-%02d", os.name, i%8), osSpec(os.name, os.version), float64(8+i%5), 12*time.Hour))
		}
		// Day 2: the openbsd island is cut off.
		island := make([]string, 8)
		for i := range island {
			island[i] = fmt.Sprintf("openbsd-%02d", i)
		}
		evs = append(evs,
			Event{Op: OpPartition, At: Duration(2 * day), IDs: island},
			// Six hours later: zero-day on the majority product.
			disclose(vuln.Vulnerability{
				ID: "CVE-PART-0001", Class: config.ClassOperatingSystem,
				Product: "ubuntu", Version: "22.04",
				Disclosed: 2*day + 6*time.Hour, PatchAt: 3 * day, Severity: 1,
			}),
			// Day 4: heal; the island votes again.
			Event{Op: OpHeal, At: Duration(4 * day)},
		)
		for h := 12; h <= 156; h += 12 {
			evs = append(evs, exploitProbe(time.Duration(h)*time.Hour, 1))
		}
		return evs
	})
}

// staggeredPatchRace: everyone shares one vulnerable crypto library;
// after disclosure, rollout waves migrate the fleet to the fixed version
// while per-replica patch latencies keep stragglers exposed — the race
// between patch adoption and the exploit window (Remark 1).
func staggeredPatchRace() Def {
	return listed(Timeline{
		Name:    "staggered-patch-race",
		Title:   "patch rollout waves race the exploit window on a shared crypto library",
		Tags:    []string{"vuln", "migration"},
		Horizon: Duration(14 * day),
		Tick:    Duration(12 * time.Hour),
	}, func(*rand.Rand) []Event {
		var evs []Event
		for i := 0; i < 30; i++ {
			os := libraryOSes[i%len(libraryOSes)]
			evs = append(evs, join(time.Duration(i)*time.Minute, fmt.Sprintf("r-%02d", i),
				osCryptoSpec(os.name, os.version, "openssl", "3.0.8"), float64(6+i%7), time.Duration(i%7)*12*time.Hour))
		}
		evs = append(evs, disclose(vuln.Vulnerability{
			ID: "CVE-RACE-0001", Class: config.ClassCryptoLibrary,
			Product: "openssl", Version: "3.0.8",
			Disclosed: 2 * day, PatchAt: 4 * day, Severity: 1,
		}))
		// Three rollout waves of ten replicas, 36h apart, migrating to
		// the fixed library build.
		for wave := 0; wave < 3; wave++ {
			for i := 0; i < 10; i++ {
				idx := wave*10 + i
				os := libraryOSes[idx%len(libraryOSes)]
				evs = append(evs, migrate(4*day+time.Duration(wave)*36*time.Hour+time.Duration(i)*30*time.Minute,
					fmt.Sprintf("r-%02d", idx), osCryptoSpec(os.name, os.version, "openssl", "3.0.9")))
			}
		}
		for d := 1; d <= 13; d++ {
			evs = append(evs, exploitProbe(time.Duration(d)*day, 1))
		}
		return evs
	})
}

// adaptiveAdversary: a rational adversary replans every two days against
// a fleet with one declining whale and a rolling series of disclosures,
// switching between exploiting monoculture and bribing operators as the
// power distribution drifts.
func adaptiveAdversary() Def {
	return listed(Timeline{
		Name:    "adaptive-adversary",
		Title:   "adversary replans between exploits and bribery as power and CVEs drift",
		Tags:    []string{"adversary", "vuln", "churn"},
		Horizon: Duration(21 * day),
		Tick:    Duration(day),
	}, func(*rand.Rand) []Event {
		var evs []Event
		for i := 0; i < 36; i++ {
			os := libraryOSes[i%len(libraryOSes)]
			power := float64(5 + i%8)
			if i == 0 {
				power = 40 // the whale
			}
			evs = append(evs, join(0, fmt.Sprintf("r-%02d", i), osSpec(os.name, os.version), power, time.Duration(i%4)*day))
		}
		// A rolling disclosure series across the five products.
		cves := []struct {
			product   string
			version   string
			disclosed time.Duration
			patch     time.Duration
			severity  float64
		}{
			{"ubuntu", "22.04", 3 * day, 5 * day, 0.8},
			{"debian", "12", 7 * day, 9 * day, 1},
			{"fedora", "38", 11 * day, 14 * day, 0.6},
			{"freebsd", "13.2", 15 * day, 16 * day, 1},
			{"openbsd", "7.3", 18 * day, 20 * day, 0.9},
		}
		for i, c := range cves {
			evs = append(evs, disclose(vuln.Vulnerability{
				ID:    vuln.ID(fmt.Sprintf("CVE-ADPT-%04d", i+1)),
				Class: config.ClassOperatingSystem, Product: c.product, Version: c.version,
				Disclosed: c.disclosed, PatchAt: c.patch, Severity: c.severity,
			}))
		}
		// The whale's power drains into the tail.
		evs = append(evs,
			Event{Op: OpPower, At: Duration(6 * day), ID: "r-00", Power: 25},
			Event{Op: OpPower, At: Duration(12 * day), ID: "r-00", Power: 12},
		)
		strategy := &StrategySpec{Kind: "adaptive", Strategies: []StrategySpec{
			{Kind: "exploit", Budget: 2},
			{Kind: "corruption", Budget: 3},
		}}
		for d := 2; d <= 20; d += 2 {
			evs = append(evs, Event{Op: OpProbe, At: Duration(time.Duration(d) * day), Strategy: strategy})
		}
		return evs
	})
}

// committeeRotation: diversity-aware committee selection runs on a
// churning population; each rotation records the committee's entropy next
// to the population's, showing the selector holding committee diversity
// while the population drifts.
func committeeRotation() Def {
	return listed(Timeline{
		Name:    "committee-rotation",
		Title:   "diversity-aware committee re-selection over a churning population",
		Tags:    []string{"committee", "churn", "vuln"},
		Horizon: Duration(12 * day),
		Tick:    Duration(day),
	}, func(rng *rand.Rand) []Event {
		oses := []struct{ name, version string }{
			{"ubuntu", "22.04"}, {"debian", "12"}, {"fedora", "38"}, {"freebsd", "13.2"},
			{"openbsd", "7.3"}, {"windows-server", "2022"}, {"linux-lts", "6.1"}, {"alpine", "3.18"},
		}
		var evs []Event
		for i := 0; i < 40; i++ {
			os := oses[i%len(oses)]
			evs = append(evs, join(0, fmt.Sprintf("r-%02d", i), osSpec(os.name, os.version), float64(4+(i*5)%11), day))
		}
		// Daily churn: one join (its OS, then its power, drawn per seed),
		// one leave (oldest founding member still around).
		for d := 1; d <= 11; d++ {
			os := oses[rng.Intn(len(oses))]
			evs = append(evs,
				join(time.Duration(d)*day-time.Hour, fmt.Sprintf("late-%02d", d), osSpec(os.name, os.version), float64(4+rng.Intn(8)), day),
				Event{Op: OpLeave, At: Duration(time.Duration(d)*day - 30*time.Minute), ID: fmt.Sprintf("r-%02d", d-1)},
			)
		}
		// Mid-run disclosure on one founding product.
		evs = append(evs, disclose(vuln.Vulnerability{
			ID: "CVE-ROTA-0001", Class: config.ClassOperatingSystem,
			Product: "fedora", Version: "38",
			Disclosed: 6 * day, PatchAt: 8 * day, Severity: 1,
		}))
		// Rotation every two days: diversity-aware selection of ten.
		for d := 0; d <= 10; d += 2 {
			evs = append(evs, Event{Op: OpRotate, At: Duration(time.Duration(d)*day + time.Hour), Size: 10})
		}
		return evs
	})
}

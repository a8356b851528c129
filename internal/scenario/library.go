package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/config"
	"repro/internal/spec"
	"repro/internal/vuln"
)

// The named scenario library. Every scenario self-registers at init time,
// mirroring the experiment registry, so cmd/scenarios list, the tests
// and the benchmarks iterate one index. Each is a Timeline: events are
// listed in the order same-instant ones must fire, then sorted by instant.
// The six analytic scenarios come first, then the five live ones, whose
// Build lists the whole timeline afresh per run like listed does.
func init() {
	for _, def := range []Def{
		flashChurn(), monocultureDrift(), zeroDayUnderPartition(), staggeredPatchRace(), adaptiveAdversary(), committeeRotation(),
	} {
		register(def)
	}
	for _, build := range []func() *Timeline{
		livePartitionProbe, liveCompromiseCascade, livePrimaryFailover, liveLossyRotation, liveReactiveRecovery,
	} {
		def := build().Def()
		def.Build = func(*rand.Rand) *Timeline { return build() }
		register(def)
	}
}

const day = 24 * time.Hour

// at converts an instant for an event literal.
func at(d time.Duration) Duration { return Duration(d) }

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
	vs := spec.NewVulnSpec(v)
	return Event{Op: OpDisclose, At: vs.Disclosed, Vuln: &vs}
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

// recoveryTargets are the OS products reactive recovery may migrate to.
func recoveryTargets() (targets []ComponentSpec) {
	for _, name := range []string{"rocky", "suse", "mint"} {
		targets = append(targets, osSpec(name, "1")...)
	}
	return targets
}

// diverseSeven is a fully diverse fleet: seven distinct OS products.
func diverseSeven() [7][]ComponentSpec {
	names := [7]string{"ubuntu", "debian", "fedora", "freebsd", "openbsd", "alpine", "arch"}
	var out [7][]ComponentSpec
	for i, n := range names {
		out[i] = osSpec(n, "1")
	}
	return out
}

// trioOnUbuntu puts r-00, r-02 and r-04 on the same ubuntu build — the
// correlated-failure monoculture the compromise scenarios exploit — and
// keeps the rest diverse.
func trioOnUbuntu() [7][]ComponentSpec {
	cfgs := diverseSeven()
	for _, i := range []int{0, 2, 4} {
		cfgs[i] = osSpec("ubuntu", "22.04")
	}
	return cfgs
}

// sevenThen is the event list every live scenario has: seven unit-power
// replicas r-00..r-06 joining at t=0 with the given configurations and patch
// latency, then the scenario's own events.
func sevenThen(cfgs [7][]ComponentSpec, patchLatency time.Duration, then ...Event) []Event {
	evs := make([]Event, 0, len(cfgs)+len(then))
	for i, cfg := range cfgs {
		evs = append(evs, Event{
			Op: OpJoin, ID: fmt.Sprintf("r-%02d", i), Config: cfg, Power: 1, PatchLatency: at(patchLatency),
		})
	}
	return append(evs, then...)
}

// ubuntuCVE is the disclosure the compromise scenarios inject: every
// ubuntu 22.04 replica is exploitable from `disclosed` until the patch
// (shipping a day later) lands per the replicas' patch latency.
func ubuntuCVE(id string, disclosed time.Duration) Event {
	return Event{Op: OpDisclose, At: at(disclosed), Vuln: &VulnSpec{
		ID: id, Class: config.ClassOperatingSystem.String(), Product: "ubuntu", Version: "22.04",
		Disclosed: at(disclosed), PatchAt: at(disclosed + day), Severity: 1,
	}}
}

func livePartitionProbe() *Timeline {
	return &Timeline{
		Name:    "live-partition-probe",
		Title:   "Live BFT under partitions and a crash: every liveness prediction must match the wire",
		Tags:    []string{"live", "robustness"},
		Horizon: at(24 * time.Hour),
		Tick:    at(2 * time.Hour),
		Live: &LiveSpec{
			StartAt:    at(time.Hour),
			ProbeEvery: at(2 * time.Hour), // probes at odd hours, events at even ones
		},
		Events: sevenThen(diverseSeven(), time.Hour,
			// A minority cut: 5 of 7 stay with the primary, quorum holds.
			Event{Op: OpPartition, At: at(6 * time.Hour), IDs: []string{"r-05", "r-06"}},
			Event{Op: OpHeal, At: at(10 * time.Hour)},
			// A threshold cut: 4 < quorum 5, commits must stall.
			Event{Op: OpPartition, At: at(12 * time.Hour), IDs: []string{"r-04", "r-05", "r-06"}},
			Event{Op: OpHeal, At: at(16 * time.Hour)},
			// One crash is well inside f=2: progress continues.
			Event{Op: OpCrash, At: at(18 * time.Hour), IDs: []string{"r-03"}},
			Event{Op: OpRestore, At: at(20 * time.Hour), IDs: []string{"r-03"}},
		),
	}
}

func liveCompromiseCascade() *Timeline {
	return &Timeline{
		Name:    "live-compromise-cascade",
		Title:   "A monoculture CVE breaches the threshold; the implants equivocate and break agreement on cue",
		Tags:    []string{"live", "robustness", "vuln"},
		Horizon: at(4 * day),
		Tick:    at(6 * time.Hour),
		Live: &LiveSpec{
			StartAt:    at(time.Hour),
			ProbeEvery: at(6 * time.Hour),
			// No attack: the default, equivocate. No attack_at: it fires at the breach.
		},
		// 3/7 compromised > 1/3: the disclosure is the breach.
		Events: sevenThen(trioOnUbuntu(), 3*day, ubuntuCVE("CVE-LIVE-0001", day)),
	}
}

func livePrimaryFailover() *Timeline {
	return &Timeline{
		Name:    "live-primary-failover",
		Title:   "Crashing the primary on a jittery wire: the cluster rotates views and every liveness prediction holds",
		Tags:    []string{"live", "robustness", "view-change"},
		Horizon: at(24 * time.Hour),
		Tick:    at(2 * time.Hour),
		Live: &LiveSpec{
			StartAt:       at(time.Hour),
			ProbeEvery:    at(2 * time.Hour), // probes at odd hours, events at even ones
			ProbeDeadline: at(5 * time.Second),
			ViewTimeout:   at(500 * time.Millisecond),
		},
		Events: sevenThen(diverseSeven(), time.Hour,
			// A mildly degraded link between two backups: drops, jitter and
			// reordering the protocol must absorb without losing quorum.
			Event{Op: OpDegrade, At: at(4 * time.Hour), IDs: []string{"r-03", "r-04"}, Fault: &FaultSpec{
				Drop: 0.2, ExtraLatency: at(10 * time.Millisecond), Jitter: at(15 * time.Millisecond), Reorder: 0.3,
			}},
			// Kill the initial primary: the view-aware prediction says probes
			// keep committing because rotation elects r-01 within deadline.
			Event{Op: OpCrash, At: at(6 * time.Hour), IDs: []string{"r-00"}},
			Event{Op: OpRestore, At: at(16 * time.Hour), IDs: []string{"r-00"}},
			Event{Op: OpRestoreLink, At: at(20 * time.Hour), IDs: []string{"r-03", "r-04"}},
		),
	}
}

func liveLossyRotation() *Timeline {
	return &Timeline{
		Name:    "live-lossy-rotation",
		Title:   "Monoculture silence attack on lossy wires: reactive recovery cleanses, rotation restores liveness",
		Tags:    []string{"live", "robustness", "view-change", "vuln", "recovery"},
		Horizon: at(4 * day),
		Tick:    at(6 * time.Hour),
		Live: &LiveSpec{
			StartAt:       at(time.Hour),
			ProbeEvery:    at(6 * time.Hour),
			ProbeDeadline: at(5 * time.Second),
			ViewTimeout:   at(500 * time.Millisecond),
			Attack:        AttackSilence, // no attack_at: fires at the breach
			Reactive:      true,
			ReactDelay:    at(6 * time.Hour),
			Targets:       recoveryTargets(),
		},
		Events: sevenThen(trioOnUbuntu(), 2*day,
			// Lossy links touch only the two spare backups (n - quorum = 2),
			// so a clean quorum core always exists among r-00..r-04.
			Event{Op: OpDegrade, At: at(2 * time.Hour), IDs: []string{"r-05", "r-06"}, Fault: &FaultSpec{
				Drop: 0.4, Duplicate: 0.2, Reorder: 0.3,
			}},
			Event{Op: OpDegrade, At: at(3 * time.Hour), IDs: []string{"r-01", "r-05"}, Fault: &FaultSpec{
				Drop: 0.2, ExtraLatency: at(5 * time.Millisecond), Jitter: at(20 * time.Millisecond),
			}},
			// Day 1: the CVE breaches the threshold; the silence attack mutes
			// the trio and probes stall. Six hours later reactive recovery
			// migrates and rejuvenates; the stalled backlog commits after a
			// view change (the TTR span lands on the trace).
			ubuntuCVE("CVE-LIVE-0001", day),
			// Day 2: crash the post-recovery primary; rotation elects the
			// next view's and commits resume on the degraded wire.
			Event{Op: OpCrash, At: at(2 * day), IDs: []string{"r-01"}},
			Event{Op: OpRestore, At: at(3 * day), IDs: []string{"r-01"}},
			Event{Op: OpRestoreLink, At: at(3*day + 6*time.Hour), IDs: []string{"r-05", "r-06"}},
		),
	}
}

func liveReactiveRecovery() *Timeline {
	return &Timeline{
		Name:    "live-reactive-recovery",
		Title:   "Reactive recovery migrates and rejuvenates the implanted trio; the late attack finds nothing",
		Tags:    []string{"live", "robustness", "recovery"},
		Horizon: at(6 * day),
		Tick:    at(12 * time.Hour),
		Live: &LiveSpec{
			StartAt:    at(time.Hour),
			ProbeEvery: at(6 * time.Hour),
			Attack:     AttackEquivocate,
			AttackAt:   at(5 * day), // after recovery: the trigger finds no implants
			Reactive:   true,
			ReactDelay: at(6 * time.Hour),
			Targets:    recoveryTargets(),
		},
		Events: sevenThen(trioOnUbuntu(), 2*day, ubuntuCVE("CVE-LIVE-0001", day)),
	}
}

package scenario

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/committee"
	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// The named scenario library. Every scenario self-registers at init time,
// mirroring the experiment registry, so cmd/scenarios list, the tests
// and the benchmarks iterate one index.
func init() {
	Register(flashChurn())
	Register(monocultureDrift())
	Register(zeroDayUnderPartition())
	Register(staggeredPatchRace())
	Register(adaptiveAdversary())
	Register(committeeRotation())
}

const day = 24 * time.Hour

// osCfg is a single-component OS configuration.
func osCfg(name, version string) config.Configuration {
	return config.MustNew(config.Component{
		Class: config.ClassOperatingSystem, Name: name, Version: version,
	})
}

// osCryptoCfg pairs an OS with a crypto library — the staggered-patch-race
// stack.
func osCryptoCfg(osName, osVersion, lib, libVersion string) config.Configuration {
	return config.MustNew(
		config.Component{Class: config.ClassOperatingSystem, Name: osName, Version: osVersion},
		config.Component{Class: config.ClassCryptoLibrary, Name: lib, Version: libVersion},
	)
}

var libraryOSes = []struct{ name, version string }{
	{"ubuntu", "22.04"}, {"debian", "12"}, {"fedora", "38"}, {"freebsd", "13.2"}, {"openbsd", "7.3"},
}

// flashChurn: a diverse fleet absorbs a flash mob of identically
// configured joiners, a zero-day lands on the mob's product mid-stay, and
// the mob drains away. Tests that assessment tracks rapid monoculture
// spikes in both directions.
func flashChurn() Def {
	return Def{
		Name:    "flash-churn",
		Title:   "identically-configured join flood, zero-day mid-stay, mass exit",
		Tags:    []string{"churn", "vuln"},
		Horizon: 10 * day,
		Tick:    12 * time.Hour,
		Setup: func(e *Engine) error {
			rng := e.Rand()
			// Base fleet: 30 replicas, 6 per OS, joining through hour one.
			for i := 0; i < 30; i++ {
				os := libraryOSes[i%len(libraryOSes)]
				err := e.JoinAt(time.Duration(i)*2*time.Minute,
					registry.ReplicaID(fmt.Sprintf("base-%02d", i)),
					osCfg(os.name, os.version),
					float64(5+rng.Intn(20)),
					time.Duration(i%4)*12*time.Hour)
				if err != nil {
					return err
				}
			}
			// Day 3: 40 ubuntu joiners inside two hours.
			for i := 0; i < 40; i++ {
				err := e.JoinAt(3*day+time.Duration(i)*3*time.Minute,
					registry.ReplicaID(fmt.Sprintf("mob-%02d", i)),
					osCfg("ubuntu", "22.04"),
					float64(3+rng.Intn(10)),
					24*time.Hour)
				if err != nil {
					return err
				}
			}
			// Day 4: zero-day on the mob's product.
			err := e.Disclose(vuln.Vulnerability{
				ID: "CVE-FLASH-0001", Class: config.ClassOperatingSystem,
				Product: "ubuntu", Version: "22.04",
				Disclosed: 4 * day, PatchAt: 4*day + 36*time.Hour, Severity: 0.9,
			})
			if err != nil {
				return err
			}
			// Day 5: three quarters of the mob leaves over six hours.
			for i := 0; i < 30; i++ {
				err := e.LeaveAt(5*day+time.Duration(i)*12*time.Minute,
					registry.ReplicaID(fmt.Sprintf("mob-%02d", i)))
				if err != nil {
					return err
				}
			}
			// Daily probes with a two-exploit budget.
			for d := 1; d <= 9; d++ {
				if err := e.ProbeAt(time.Duration(d)*day, adversary.ExploitStrategy{Budget: 2}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// monocultureDrift: a balanced fleet slowly migrates to one fashionable
// product version; entropy decays monotonically until a disclosure on the
// dominant product shows what the drift cost. The paper's "software
// monoculture" failure mode as a timeline.
func monocultureDrift() Def {
	return Def{
		Name:    "monoculture-drift",
		Title:   "gradual migration to one product erodes entropy until a disclosure lands",
		Tags:    []string{"churn", "migration", "vuln"},
		Horizon: 30 * day,
		Tick:    day,
		Setup: func(e *Engine) error {
			// 40 replicas, 8 per OS.
			for i := 0; i < 40; i++ {
				os := libraryOSes[i%len(libraryOSes)]
				err := e.JoinAt(0,
					registry.ReplicaID(fmt.Sprintf("r-%02d", i)),
					osCfg(os.name, os.version),
					10,
					time.Duration(i%3)*day)
				if err != nil {
					return err
				}
			}
			// One migration to linux-lts every 12 hours: 30 of 40 drift.
			for i := 0; i < 30; i++ {
				err := e.MigrateAt(12*time.Hour+time.Duration(i)*12*time.Hour,
					registry.ReplicaID(fmt.Sprintf("r-%02d", i)),
					osCfg("linux-lts", "6.1"))
				if err != nil {
					return err
				}
			}
			// Day 21: the fashionable product turns out vulnerable.
			err := e.Disclose(vuln.Vulnerability{
				ID: "CVE-DRIFT-0001", Class: config.ClassOperatingSystem,
				Product: "linux-lts", Version: "6.1",
				Disclosed: 21 * day, PatchAt: 23 * day, Severity: 1,
			})
			if err != nil {
				return err
			}
			for d := 2; d <= 28; d += 2 {
				if err := e.ProbeAt(time.Duration(d)*day, adversary.ExploitStrategy{Budget: 1}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// zeroDayUnderPartition: a partition silences the fleet's most
// diversity-carrying island exactly when a zero-day lands on the majority
// side — the compound failure the paper's availability/safety trade-off
// warns about.
func zeroDayUnderPartition() Def {
	return Def{
		Name:    "zero-day-under-partition",
		Title:   "partition removes a diverse island while a zero-day hits the majority",
		Tags:    []string{"partition", "vuln"},
		Horizon: 7 * day,
		Tick:    6 * time.Hour,
		Setup: func(e *Engine) error {
			oses := []struct{ name, version string }{
				{"ubuntu", "22.04"}, {"freebsd", "13.2"}, {"openbsd", "7.3"},
			}
			for i := 0; i < 24; i++ {
				os := oses[i/8]
				err := e.JoinAt(0,
					registry.ReplicaID(fmt.Sprintf("%s-%02d", os.name, i%8)),
					osCfg(os.name, os.version),
					float64(8+i%5),
					12*time.Hour)
				if err != nil {
					return err
				}
			}
			// Day 2: the openbsd island is cut off.
			island := make([]registry.ReplicaID, 8)
			for i := range island {
				island[i] = registry.ReplicaID(fmt.Sprintf("openbsd-%02d", i))
			}
			if err := e.PartitionAt(2*day, island...); err != nil {
				return err
			}
			// Six hours later: zero-day on the majority product.
			err := e.Disclose(vuln.Vulnerability{
				ID: "CVE-PART-0001", Class: config.ClassOperatingSystem,
				Product: "ubuntu", Version: "22.04",
				Disclosed: 2*day + 6*time.Hour, PatchAt: 3 * day, Severity: 1,
			})
			if err != nil {
				return err
			}
			// Day 4: heal; the island votes again.
			if err := e.HealAt(4 * day); err != nil {
				return err
			}
			for h := 12; h <= 156; h += 12 {
				if err := e.ProbeAt(time.Duration(h)*time.Hour, adversary.ExploitStrategy{Budget: 1}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// staggeredPatchRace: everyone shares one vulnerable crypto library;
// after disclosure, rollout waves migrate the fleet to the fixed version
// while per-replica patch latencies keep stragglers exposed — the race
// between patch adoption and the exploit window (Remark 1).
func staggeredPatchRace() Def {
	return Def{
		Name:    "staggered-patch-race",
		Title:   "patch rollout waves race the exploit window on a shared crypto library",
		Tags:    []string{"vuln", "migration"},
		Horizon: 14 * day,
		Tick:    12 * time.Hour,
		Setup: func(e *Engine) error {
			for i := 0; i < 30; i++ {
				os := libraryOSes[i%len(libraryOSes)]
				err := e.JoinAt(time.Duration(i)*time.Minute,
					registry.ReplicaID(fmt.Sprintf("r-%02d", i)),
					osCryptoCfg(os.name, os.version, "openssl", "3.0.8"),
					float64(6+i%7),
					time.Duration(i%7)*12*time.Hour)
				if err != nil {
					return err
				}
			}
			err := e.Disclose(vuln.Vulnerability{
				ID: "CVE-RACE-0001", Class: config.ClassCryptoLibrary,
				Product: "openssl", Version: "3.0.8",
				Disclosed: 2 * day, PatchAt: 4 * day, Severity: 1,
			})
			if err != nil {
				return err
			}
			// Three rollout waves of ten replicas, 36h apart, migrating to
			// the fixed library build.
			for wave := 0; wave < 3; wave++ {
				for i := 0; i < 10; i++ {
					idx := wave*10 + i
					os := libraryOSes[idx%len(libraryOSes)]
					err := e.MigrateAt(4*day+time.Duration(wave)*36*time.Hour+time.Duration(i)*30*time.Minute,
						registry.ReplicaID(fmt.Sprintf("r-%02d", idx)),
						osCryptoCfg(os.name, os.version, "openssl", "3.0.9"))
					if err != nil {
						return err
					}
				}
			}
			for d := 1; d <= 13; d++ {
				if err := e.ProbeAt(time.Duration(d)*day, adversary.ExploitStrategy{Budget: 1}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// adaptiveAdversary: a rational adversary replans every two days against
// a fleet with one declining whale and a rolling series of disclosures,
// switching between exploiting monoculture and bribing operators as the
// power distribution drifts.
func adaptiveAdversary() Def {
	return Def{
		Name:    "adaptive-adversary",
		Title:   "adversary replans between exploits and bribery as power and CVEs drift",
		Tags:    []string{"adversary", "vuln", "churn"},
		Horizon: 21 * day,
		Tick:    day,
		Setup: func(e *Engine) error {
			for i := 0; i < 36; i++ {
				os := libraryOSes[i%len(libraryOSes)]
				power := float64(5 + i%8)
				if i == 0 {
					power = 40 // the whale
				}
				err := e.JoinAt(0,
					registry.ReplicaID(fmt.Sprintf("r-%02d", i)),
					osCfg(os.name, os.version),
					power,
					time.Duration(i%4)*day)
				if err != nil {
					return err
				}
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
				err := e.Disclose(vuln.Vulnerability{
					ID:    vuln.ID(fmt.Sprintf("CVE-ADPT-%04d", i+1)),
					Class: config.ClassOperatingSystem, Product: c.product, Version: c.version,
					Disclosed: c.disclosed, PatchAt: c.patch, Severity: c.severity,
				})
				if err != nil {
					return err
				}
			}
			// The whale's power drains into the tail.
			if err := e.SetPowerAt(6*day, "r-00", 25); err != nil {
				return err
			}
			if err := e.SetPowerAt(12*day, "r-00", 12); err != nil {
				return err
			}
			strategy := adversary.AdaptiveStrategy{Strategies: []adversary.Strategy{
				adversary.ExploitStrategy{Budget: 2},
				adversary.CorruptionStrategy{Budget: 3},
			}}
			for d := 2; d <= 20; d += 2 {
				if err := e.ProbeAt(time.Duration(d)*day, strategy); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// committeeRotation: diversity-aware committee selection runs on a
// churning population; each rotation records the committee's entropy next
// to the population's, showing the selector holding committee diversity
// while the population drifts.
func committeeRotation() Def {
	return Def{
		Name:    "committee-rotation",
		Title:   "diversity-aware committee re-selection over a churning population",
		Tags:    []string{"committee", "churn", "vuln"},
		Horizon: 12 * day,
		Tick:    day,
		Setup: func(e *Engine) error {
			oses := []struct{ name, version string }{
				{"ubuntu", "22.04"}, {"debian", "12"}, {"fedora", "38"}, {"freebsd", "13.2"},
				{"openbsd", "7.3"}, {"windows-server", "2022"}, {"linux-lts", "6.1"}, {"alpine", "3.18"},
			}
			for i := 0; i < 40; i++ {
				os := oses[i%len(oses)]
				err := e.JoinAt(0,
					registry.ReplicaID(fmt.Sprintf("r-%02d", i)),
					osCfg(os.name, os.version),
					float64(4+(i*5)%11),
					day)
				if err != nil {
					return err
				}
			}
			// Daily churn: one join (random config), one leave (oldest
			// founding member still around).
			for d := 1; d <= 11; d++ {
				d := d
				err := e.At(time.Duration(d)*day-time.Hour, "join", func(e *Engine) (string, error) {
					os := oses[e.Rand().Intn(len(oses))]
					id := registry.ReplicaID(fmt.Sprintf("late-%02d", d))
					cfg, power := osCfg(os.name, os.version), float64(4+e.Rand().Intn(8))
					if err := e.Registry().JoinDeclared(id, cfg, power, day); err != nil {
						return "", err
					}
					return fmt.Sprintf("%s cfg=%s power=%s", id, cfg.Digest().Short(), fmtPower(power)), nil
				})
				if err != nil {
					return err
				}
				err = e.LeaveAt(time.Duration(d)*day-30*time.Minute,
					registry.ReplicaID(fmt.Sprintf("r-%02d", d-1)))
				if err != nil {
					return err
				}
			}
			// Mid-run disclosure on one founding product.
			err := e.Disclose(vuln.Vulnerability{
				ID: "CVE-ROTA-0001", Class: config.ClassOperatingSystem,
				Product: "fedora", Version: "38",
				Disclosed: 6 * day, PatchAt: 8 * day, Severity: 1,
			})
			if err != nil {
				return err
			}
			// Rotation every two days: diversity-aware selection of ten.
			for d := 0; d <= 10; d += 2 {
				err := e.At(time.Duration(d)*day+time.Hour, "rotate", func(e *Engine) (string, error) {
					records := e.Registry().Records()
					candidates := make([]committee.Candidate, len(records))
					for i, rec := range records {
						candidates[i] = committee.Candidate{
							ID:          string(rec.ID),
							Stake:       rec.Power,
							ConfigLabel: rec.Config.Digest().Short(),
						}
					}
					selected, err := committee.SelectDiverse(candidates, 10)
					if err != nil {
						return "", err
					}
					members := make([]diversity.Member, len(selected))
					for i, c := range selected {
						members[i] = diversity.Member{Label: c.ConfigLabel, Power: c.Stake}
					}
					pop, err := diversity.NewPopulation(members)
					if err != nil {
						return "", err
					}
					rep, err := diversity.ReportForPopulation(pop)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("k=10 committee entropy=%.3fb effective-configs=%.2f", rep.Entropy, rep.EffectiveConfigurations), nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
}

package liveloop

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/config"
	"repro/internal/scenario"
)

const day = 24 * time.Hour

// at converts an instant for an event literal.
func at(d time.Duration) scenario.Duration { return scenario.Duration(d) }

// osSpec is an OS-only configuration, the single-class population the live
// scenarios use (BFT substrate, unit powers).
func osSpec(name, version string) []scenario.ComponentSpec {
	return []scenario.ComponentSpec{{Class: config.ClassOperatingSystem.String(), Name: name, Version: version}}
}

// recoveryTargets are the OS products reactive recovery may migrate to.
func recoveryTargets() (targets []scenario.ComponentSpec) {
	for _, name := range []string{"rocky", "suse", "mint"} {
		targets = append(targets, osSpec(name, "1")...)
	}
	return targets
}

// diverseSeven is a fully diverse fleet: seven distinct OS products.
func diverseSeven() [7][]scenario.ComponentSpec {
	names := [7]string{"ubuntu", "debian", "fedora", "freebsd", "openbsd", "alpine", "arch"}
	var out [7][]scenario.ComponentSpec
	for i, n := range names {
		out[i] = osSpec(n, "1")
	}
	return out
}

// trioOnUbuntu puts r-00, r-02 and r-04 on the same ubuntu build — the
// correlated-failure monoculture the compromise scenarios exploit — and
// keeps the rest diverse.
func trioOnUbuntu() [7][]scenario.ComponentSpec {
	cfgs := diverseSeven()
	for _, i := range []int{0, 2, 4} {
		cfgs[i] = osSpec("ubuntu", "22.04")
	}
	return cfgs
}

// sevenThen is the event list every live scenario has: seven unit-power
// replicas r-00..r-06 joining at t=0 with the given configurations and patch
// latency, then the scenario's own events.
func sevenThen(cfgs [7][]scenario.ComponentSpec, patchLatency time.Duration, then ...scenario.Event) []scenario.Event {
	evs := make([]scenario.Event, 0, len(cfgs)+len(then))
	for i, cfg := range cfgs {
		evs = append(evs, scenario.Event{
			Op: scenario.OpJoin, ID: fmt.Sprintf("r-%02d", i), Config: cfg, Power: 1, PatchLatency: at(patchLatency),
		})
	}
	return append(evs, then...)
}

// ubuntuCVE is the disclosure the compromise scenarios inject: every
// ubuntu 22.04 replica is exploitable from `disclosed` until the patch
// (shipping a day later) lands per the replicas' patch latency.
func ubuntuCVE(id string, disclosed time.Duration) scenario.Event {
	return scenario.Event{Op: scenario.OpDisclose, At: at(disclosed), Vuln: &scenario.VulnSpec{
		ID: id, Class: config.ClassOperatingSystem.String(), Product: "ubuntu", Version: "22.04",
		Disclosed: at(disclosed), PatchAt: at(disclosed + day), Severity: 1,
	}}
}

// The live library registers like the analytic one: the registry keeps each
// scenario's metadata and a Build that lists the timeline afresh per run, so
// no event stays resident (see scenario's listed).
func init() {
	for _, build := range []func() *scenario.Timeline{
		livePartitionProbe, liveCompromiseCascade, livePrimaryFailover, liveLossyRotation, liveReactiveRecovery,
	} {
		def := build().Def()
		def.Build = func(*rand.Rand) *scenario.Timeline { return build() }
		scenario.Register(def)
	}
}

func livePartitionProbe() *scenario.Timeline {
	return &scenario.Timeline{
		Name:    "live-partition-probe",
		Title:   "Live BFT under partitions and a crash: every liveness prediction must match the wire",
		Tags:    []string{"live", "robustness"},
		Horizon: at(24 * time.Hour),
		Tick:    at(2 * time.Hour),
		Live: &scenario.LiveSpec{
			StartAt:    at(time.Hour),
			ProbeEvery: at(2 * time.Hour), // probes at odd hours, events at even ones
		},
		Events: sevenThen(diverseSeven(), time.Hour,
			// A minority cut: 5 of 7 stay with the primary, quorum holds.
			scenario.Event{Op: scenario.OpPartition, At: at(6 * time.Hour), IDs: []string{"r-05", "r-06"}},
			scenario.Event{Op: scenario.OpHeal, At: at(10 * time.Hour)},
			// A threshold cut: 4 < quorum 5, commits must stall.
			scenario.Event{Op: scenario.OpPartition, At: at(12 * time.Hour), IDs: []string{"r-04", "r-05", "r-06"}},
			scenario.Event{Op: scenario.OpHeal, At: at(16 * time.Hour)},
			// One crash is well inside f=2: progress continues.
			scenario.Event{Op: scenario.OpCrash, At: at(18 * time.Hour), IDs: []string{"r-03"}},
			scenario.Event{Op: scenario.OpRestore, At: at(20 * time.Hour), IDs: []string{"r-03"}},
		),
	}
}

func liveCompromiseCascade() *scenario.Timeline {
	return &scenario.Timeline{
		Name:    "live-compromise-cascade",
		Title:   "A monoculture CVE breaches the threshold; the implants equivocate and break agreement on cue",
		Tags:    []string{"live", "robustness", "vuln"},
		Horizon: at(4 * day),
		Tick:    at(6 * time.Hour),
		Live: &scenario.LiveSpec{
			StartAt:    at(time.Hour),
			ProbeEvery: at(6 * time.Hour),
			// No attack: the default, equivocate. No attack_at: it fires at the breach.
		},
		// 3/7 compromised > 1/3: the disclosure is the breach.
		Events: sevenThen(trioOnUbuntu(), 3*day, ubuntuCVE("CVE-LIVE-0001", day)),
	}
}

func livePrimaryFailover() *scenario.Timeline {
	return &scenario.Timeline{
		Name:    "live-primary-failover",
		Title:   "Crashing the primary on a jittery wire: the cluster rotates views and every liveness prediction holds",
		Tags:    []string{"live", "robustness", "view-change"},
		Horizon: at(24 * time.Hour),
		Tick:    at(2 * time.Hour),
		Live: &scenario.LiveSpec{
			StartAt:       at(time.Hour),
			ProbeEvery:    at(2 * time.Hour), // probes at odd hours, events at even ones
			ProbeDeadline: at(5 * time.Second),
			ViewTimeout:   at(500 * time.Millisecond),
		},
		Events: sevenThen(diverseSeven(), time.Hour,
			// A mildly degraded link between two backups: drops, jitter and
			// reordering the protocol must absorb without losing quorum.
			scenario.Event{Op: scenario.OpDegrade, At: at(4 * time.Hour), IDs: []string{"r-03", "r-04"}, Fault: &scenario.FaultSpec{
				Drop: 0.2, ExtraLatency: at(10 * time.Millisecond), Jitter: at(15 * time.Millisecond), Reorder: 0.3,
			}},
			// Kill the initial primary: the view-aware prediction says probes
			// keep committing because rotation elects r-01 within deadline.
			scenario.Event{Op: scenario.OpCrash, At: at(6 * time.Hour), IDs: []string{"r-00"}},
			scenario.Event{Op: scenario.OpRestore, At: at(16 * time.Hour), IDs: []string{"r-00"}},
			scenario.Event{Op: scenario.OpRestoreLink, At: at(20 * time.Hour), IDs: []string{"r-03", "r-04"}},
		),
	}
}

func liveLossyRotation() *scenario.Timeline {
	return &scenario.Timeline{
		Name:    "live-lossy-rotation",
		Title:   "Monoculture silence attack on lossy wires: reactive recovery cleanses, rotation restores liveness",
		Tags:    []string{"live", "robustness", "view-change", "vuln", "recovery"},
		Horizon: at(4 * day),
		Tick:    at(6 * time.Hour),
		Live: &scenario.LiveSpec{
			StartAt:       at(time.Hour),
			ProbeEvery:    at(6 * time.Hour),
			ProbeDeadline: at(5 * time.Second),
			ViewTimeout:   at(500 * time.Millisecond),
			Attack:        scenario.AttackSilence, // no attack_at: fires at the breach
			Reactive:      true,
			ReactDelay:    at(6 * time.Hour),
			Targets:       recoveryTargets(),
		},
		Events: sevenThen(trioOnUbuntu(), 2*day,
			// Lossy links touch only the two spare backups (n - quorum = 2),
			// so a clean quorum core always exists among r-00..r-04.
			scenario.Event{Op: scenario.OpDegrade, At: at(2 * time.Hour), IDs: []string{"r-05", "r-06"}, Fault: &scenario.FaultSpec{
				Drop: 0.4, Duplicate: 0.2, Reorder: 0.3,
			}},
			scenario.Event{Op: scenario.OpDegrade, At: at(3 * time.Hour), IDs: []string{"r-01", "r-05"}, Fault: &scenario.FaultSpec{
				Drop: 0.2, ExtraLatency: at(5 * time.Millisecond), Jitter: at(20 * time.Millisecond),
			}},
			// Day 1: the CVE breaches the threshold; the silence attack mutes
			// the trio and probes stall. Six hours later reactive recovery
			// migrates and rejuvenates; the stalled backlog commits after a
			// view change (the TTR span lands on the trace).
			ubuntuCVE("CVE-LIVE-0001", day),
			// Day 2: crash the post-recovery primary; rotation elects the
			// next view's and commits resume on the degraded wire.
			scenario.Event{Op: scenario.OpCrash, At: at(2 * day), IDs: []string{"r-01"}},
			scenario.Event{Op: scenario.OpRestore, At: at(3 * day), IDs: []string{"r-01"}},
			scenario.Event{Op: scenario.OpRestoreLink, At: at(3*day + 6*time.Hour), IDs: []string{"r-05", "r-06"}},
		),
	}
}

func liveReactiveRecovery() *scenario.Timeline {
	return &scenario.Timeline{
		Name:    "live-reactive-recovery",
		Title:   "Reactive recovery migrates and rejuvenates the implanted trio; the late attack finds nothing",
		Tags:    []string{"live", "robustness", "recovery"},
		Horizon: at(6 * day),
		Tick:    at(12 * time.Hour),
		Live: &scenario.LiveSpec{
			StartAt:    at(time.Hour),
			ProbeEvery: at(6 * time.Hour),
			Attack:     scenario.AttackEquivocate,
			AttackAt:   at(5 * day), // after recovery: the trigger finds no implants
			Reactive:   true,
			ReactDelay: at(6 * time.Hour),
			Targets:    recoveryTargets(),
		},
		Events: sevenThen(trioOnUbuntu(), 2*day, ubuntuCVE("CVE-LIVE-0001", day)),
	}
}

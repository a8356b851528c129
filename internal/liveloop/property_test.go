package liveloop

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/scenario"
)

// compromiseDef builds a generated compromise timeline: the ubuntu trio
// (including the primary) is exploitable from `disclosed`, the attack
// fires at `attackAt`, and reactive recovery is on or off. The shape is
// parameterized so the property holds across a family of timelines, not
// one hand-tuned scenario — and each member runs from its JSON, so the
// whole live block is exercised the way a file would carry it.
func compromiseDef(t *testing.T, name, mode string, disclosed, patchLatency, attackAt, reactDelay time.Duration, reactive bool) scenario.Def {
	t.Helper()
	live := &scenario.LiveSpec{
		StartAt:    at(time.Hour),
		ProbeEvery: at(12 * time.Hour),
		Attack:     mode,
		AttackAt:   at(attackAt),
		Reactive:   reactive,
	}
	if reactive {
		live.ReactDelay = at(reactDelay)
		live.Targets = recoveryTargets()
	}
	tl := &scenario.Timeline{
		Name: name, Title: "generated compromise timeline", Horizon: at(8 * day), Tick: at(12 * time.Hour),
		Live:   live,
		Events: sevenThen(trioOnUbuntu(), patchLatency, ubuntuCVE("CVE-GEN-0001", disclosed)),
	}
	data, err := tl.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.ParseTimeline(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return parsed.Def()
}

// TestPropertyReactiveRecoveryIsBounded: with reactive recovery enabled,
// every threshold breach returns to assessed-safe within a small multiple
// of the react delay — finite, bounded time-to-recover on every generated
// timeline, with zero prediction/observation divergences.
func TestPropertyReactiveRecoveryIsBounded(t *testing.T) {
	modes := []string{scenario.AttackEquivocate, scenario.AttackSilence}
	for i, disclosed := range []time.Duration{day, 36 * time.Hour, 2 * day} {
		for j, patchLatency := range []time.Duration{day, 2 * day} {
			for k, reactDelay := range []time.Duration{3 * time.Hour, 9 * time.Hour} {
				mode := modes[(i+j+k)%len(modes)]
				name := fmt.Sprintf("gen-reactive-%d-%d-%d", i, j, k)
				// The attack strikes after the exploit window closes — the
				// moment a surviving implant would be invisible to the
				// monitor. Recovery must have cleansed it by then.
				attackAt := disclosed + day + patchLatency + time.Hour
				def := compromiseDef(t, name, mode, disclosed, patchLatency, attackAt, reactDelay, true)
				res, err := scenario.Run(def, int64(1000+i*100+j*10+k))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum := res.Summary()
				if sum.Breaches == 0 {
					t.Fatalf("%s: no breach; the timeline generator is broken", name)
				}
				if sum.Recoveries != sum.Breaches {
					t.Fatalf("%s: %d breaches but %d recoveries", name, sum.Breaches, sum.Recoveries)
				}
				// Bounded: the loop fires every reactDelay and the first
				// round already migrates to clean configs, so TTR can never
				// exceed two rounds.
				if sum.MaxTTR <= 0 || sum.MaxTTR > 2*reactDelay {
					t.Fatalf("%s: TTR %v outside (0, %v]", name, sum.MaxTTR, 2*reactDelay)
				}
				if sum.Divergences != 0 {
					t.Fatalf("%s: %d divergences on a recovered timeline", name, sum.Divergences)
				}
				if sum.Violations != 0 {
					t.Fatalf("%s: %d violation records after recovery", name, sum.Violations)
				}
			}
		}
	}
}

// TestPropertyNoRecoveryDiverges: the same timelines with recovery
// disabled leave the implants in place past the exploit window, so the
// post-window attack contradicts the monitor's safe assessment — at least
// one divergence, and no recovery record ever.
func TestPropertyNoRecoveryDiverges(t *testing.T) {
	for i, mode := range []string{scenario.AttackEquivocate, scenario.AttackSilence} {
		disclosed, patchLatency := day, day
		attackAt := disclosed + day + patchLatency + time.Hour
		name := fmt.Sprintf("gen-unprotected-%d", i)
		def := compromiseDef(t, name, mode, disclosed, patchLatency, attackAt, 0, false)
		res, err := scenario.Run(def, int64(2000+i))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := res.Summary()
		if sum.Breaches == 0 {
			t.Fatalf("%s: no breach", name)
		}
		if sum.Recoveries != 0 {
			t.Fatalf("%s: recovery disabled but recoveries=%d", name, sum.Recoveries)
		}
		if sum.Divergences == 0 {
			t.Fatalf("%s: surviving implants never contradicted the monitor", name)
		}
		if mode == scenario.AttackEquivocate && sum.Violations == 0 {
			t.Fatalf("%s: equivocation after window close produced no violation", name)
		}
	}
}

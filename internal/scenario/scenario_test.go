package scenario

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestLibraryRegistered pins the named library: the eleven scenarios the
// CLI, CI and README advertise, in registration order — the six analytic
// ones, then the five live ones, each under the "live" tag that
// cmd/scenarios run -live selects.
func TestLibraryRegistered(t *testing.T) {
	want := []string{
		"flash-churn", "monoculture-drift", "zero-day-under-partition",
		"staggered-patch-race", "adaptive-adversary", "committee-rotation",
		"live-partition-probe", "live-compromise-cascade", "live-primary-failover",
		"live-lossy-rotation", "live-reactive-recovery",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], name)
		}
		d, ok := Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) missing", name)
		}
		if _, ok := Lookup(strings.ToUpper(name)); !ok {
			t.Errorf("Lookup is not case-insensitive for %q", name)
		}
		if live := strings.HasPrefix(name, "live-"); live != slices.Contains(d.Tags, "live") {
			t.Errorf("%s: live tag %t, want %t", name, !live, live)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

// runByName resolves a registered scenario and runs it through the unified
// Run entrypoint, failing the test on any error.
func runByName(t *testing.T, name string, seed int64) *Result {
	t.Helper()
	def, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	res, err := Run(def, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(7, "flash-churn") != DeriveSeed(7, "FLASH-CHURN") {
		t.Error("DeriveSeed is case-sensitive in the name")
	}
	if DeriveSeed(7, "flash-churn") == DeriveSeed(7, "monoculture-drift") {
		t.Error("different scenarios derived the same seed")
	}
	if DeriveSeed(7, "flash-churn") == DeriveSeed(8, "flash-churn") {
		t.Error("different base seeds derived the same seed")
	}
}

// TestLibraryRunsAndReplays runs every library scenario twice and demands
// byte-identical JSON traces — the engine's core guarantee, the same one
// CI enforces through the CLI.
func TestLibraryRunsAndReplays(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			first, err := Run(def, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Records) == 0 {
				t.Fatal("empty trace")
			}
			again, err := Run(def, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Records) != len(again.Records) {
				t.Fatalf("replay produced %d records, first run %d", len(again.Records), len(first.Records))
			}
			for i := range first.Records {
				a, err := first.Records[i].JSON()
				if err != nil {
					t.Fatal(err)
				}
				b, err := again.Records[i].JSON()
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("record %d differs between replays:\n%s\n%s", i, a, b)
				}
			}

			// Structural invariants of any trace.
			var prev Record
			for i, rec := range first.Records {
				if rec.Seq != uint64(i) {
					t.Fatalf("record %d has seq %d", i, rec.Seq)
				}
				if rec.Scenario != def.Name {
					t.Fatalf("record %d names scenario %q", i, rec.Scenario)
				}
				if i > 0 && rec.TNanos < prev.TNanos {
					t.Fatalf("record %d goes back in time: %v after %v", i, rec.TNanos, prev.TNanos)
				}
				if rec.TNanos > int64(def.Horizon) {
					t.Fatalf("record %d beyond horizon: %v", i, rec.T)
				}
				prev = rec
			}
			last := first.Records[len(first.Records)-1]
			if last.Event != "final" || last.TNanos != int64(def.Horizon) {
				t.Fatalf("trace does not end with a final record at the horizon: %+v", last)
			}
		})
	}
}

// TestLibrarySeedSensitivity: a different seed must change at least one
// record in the seed-dependent scenarios (flash-churn draws powers from
// the run RNG).
func TestLibrarySeedSensitivity(t *testing.T) {
	a := runByName(t, "flash-churn", 1)
	b := runByName(t, "flash-churn", 2)
	if len(a.Records) == len(b.Records) {
		same := true
		for i := range a.Records {
			ja, _ := a.Records[i].JSON()
			jb, _ := b.Records[i].JSON()
			if ja != jb {
				same = false
				break
			}
		}
		if same {
			t.Error("seeds 1 and 2 produced identical flash-churn traces")
		}
	}
}

// TestLibraryTellsItsStory spot-checks that the scenarios produce the
// dynamics they are named for.
func TestLibraryTellsItsStory(t *testing.T) {
	t.Run("flash-churn breaks safety during the mob", func(t *testing.T) {
		res := runByName(t, "flash-churn", 42)
		s := res.Summary()
		if s.UnsafeRecords == 0 {
			t.Error("zero-day on the mob never broke safety")
		}
		if !s.AdvBreaks {
			t.Error("exploit adversary never broke the threshold")
		}
	})
	t.Run("monoculture-drift erodes entropy", func(t *testing.T) {
		res := runByName(t, "monoculture-drift", 42)
		// Entropy at the start of the drift (full fleet, balanced) must
		// exceed entropy after the drift completes.
		var startH, preDiscloseH float64
		for _, rec := range res.Records {
			if rec.Event == "tick" && rec.TNanos == int64(day) {
				startH = rec.Entropy
			}
			if rec.Event == "tick" && rec.TNanos == int64(20*day) {
				preDiscloseH = rec.Entropy
			}
		}
		if preDiscloseH >= startH {
			t.Errorf("drift did not erode entropy: day1 %.3f -> day20 %.3f", startH, preDiscloseH)
		}
	})
	t.Run("staggered-patch-race recovers by rollout", func(t *testing.T) {
		res := runByName(t, "staggered-patch-race", 42)
		last := res.Records[len(res.Records)-1]
		if last.Compromised != 0 {
			t.Errorf("fleet still compromised at horizon: Σf=%v", last.Compromised)
		}
		s := res.Summary()
		if s.MaxComp < 0.9 {
			t.Errorf("shared library vuln never spiked: max Σf=%v", s.MaxComp)
		}
	})
	t.Run("zero-day-under-partition compounds", func(t *testing.T) {
		res := runByName(t, "zero-day-under-partition", 42)
		// During the partition the membership count stays but power drops.
		var sawPartition, sawHeal bool
		for _, rec := range res.Records {
			switch rec.Event {
			case "partition":
				sawPartition = true
				if rec.Replicas != 24 {
					t.Errorf("partition record sees %d replicas, want 24", rec.Replicas)
				}
			case "heal":
				sawHeal = true
			}
		}
		if !sawPartition || !sawHeal {
			t.Error("partition/heal events missing from trace")
		}
	})
	t.Run("adaptive-adversary probes both models", func(t *testing.T) {
		res := runByName(t, "adaptive-adversary", 42)
		strategies := make(map[string]bool)
		for _, rec := range res.Records {
			if rec.Event == "probe" {
				strategies[rec.AdvStrategy] = true
			}
		}
		if len(strategies) < 2 {
			t.Errorf("adaptive adversary committed to only %v; expected it to switch models across probes", strategies)
		}
	})
	t.Run("committee-rotation records rotations", func(t *testing.T) {
		res := runByName(t, "committee-rotation", 42)
		rotations := 0
		for _, rec := range res.Records {
			if rec.Event == "rotate" {
				rotations++
				if !strings.Contains(rec.Detail, "committee entropy=") {
					t.Errorf("rotate record missing committee entropy: %q", rec.Detail)
				}
			}
		}
		if rotations != 6 {
			t.Errorf("saw %d rotations, want 6", rotations)
		}
	})
}

// TestRegisterValidation: every malformed registration panics before it
// can pollute the registry — including the two holes register used to
// have: a negative Tick (silently replaced by the Horizon/24 default at
// run time) and a name that collides with an existing one only after
// trimming/lowercasing (which Lookup normalizes but register did not).
func TestRegisterValidation(t *testing.T) {
	mustPanic := func(t *testing.T, why string, d Def) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("register accepted %s", why)
			}
		}()
		register(d)
	}
	valid := (&Timeline{Name: "reg-valid", Title: "t", Horizon: Duration(time.Hour)}).Def()

	d := valid
	d.Name = ""
	mustPanic(t, "an empty name", d)

	d = valid
	d.Horizon = 0
	mustPanic(t, "a zero horizon", d)

	d = valid
	d.Tick = -time.Second
	mustPanic(t, "a negative tick", d)

	d = valid
	d.Build = nil
	mustPanic(t, "a def without a timeline", d)

	d = valid
	d.Name = " reg-padded "
	mustPanic(t, "a name with surrounding whitespace", d)

	d = valid
	d.Name = "flash-churn"
	mustPanic(t, "a duplicate name", d)

	d = valid
	d.Name = "Flash-Churn"
	mustPanic(t, "a duplicate name differing only in case", d)

	if _, ok := Lookup("reg-valid"); ok {
		t.Fatal("a rejected registration leaked into the registry")
	}
}

func TestSummarize(t *testing.T) {
	records := []Record{
		{Seq: 0, Event: "join", Entropy: 2, Safe: true},
		{Seq: 1, Event: "tick", TNanos: int64(time.Hour), Entropy: 1.5, Compromised: 0.4, Safe: false, AdvFraction: 0.2},
		{Seq: 2, Event: "probe", TNanos: int64(2 * time.Hour), Entropy: 1.8, Compromised: 0.1, Safe: true, AdvFraction: 0.5, AdvBreaks: true},
		{Seq: 3, Event: "final", TNanos: int64(3 * time.Hour), Entropy: 1.9, Safe: true, Replicas: 12},
	}
	s := Summarize("x", 9, records)
	if s.Records != 4 || s.Events != 2 {
		t.Errorf("records/events = %d/%d, want 4/2", s.Records, s.Events)
	}
	if s.MinEntropy != 1.5 || s.FinalEntropy != 1.9 || s.FinalReplicas != 12 {
		t.Errorf("entropy summary wrong: %+v", s)
	}
	if s.MaxComp != 0.4 || s.MaxCompAt != time.Hour {
		t.Errorf("max compromise wrong: %+v", s)
	}
	if s.UnsafeRecords != 1 || !s.AdvBreaks || s.AdvBestFrac != 0.5 {
		t.Errorf("adversary summary wrong: %+v", s)
	}
}

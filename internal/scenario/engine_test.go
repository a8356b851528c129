package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/registry"
	"repro/internal/vuln"
)

func testCfg(os string) []ComponentSpec { return osSpec(os, "1") }

// testDef is the def of a test timeline: the events, sorted by instant.
func testDef(name string, horizon, tick time.Duration, events ...Event) Def {
	tl := &Timeline{Name: name, Title: "t", Horizon: Duration(horizon), Tick: Duration(tick), Events: events}
	tl.SortEvents()
	return tl.Def()
}

// Event literals the engine tests list by the dozen (join, migrate, disclose
// and exploitProbe are the library's).

func leave(at time.Duration, id string) Event { return Event{Op: OpLeave, At: Duration(at), ID: id} }

func power(at time.Duration, id string, p float64) Event {
	return Event{Op: OpPower, At: Duration(at), ID: id, Power: p}
}

func partition(at time.Duration, ids ...string) Event {
	return Event{Op: OpPartition, At: Duration(at), IDs: ids}
}

func heal(at time.Duration) Event { return Event{Op: OpHeal, At: Duration(at)} }

func crash(at time.Duration, ids ...string) Event {
	return Event{Op: OpCrash, At: Duration(at), IDs: ids}
}

func restore(at time.Duration, ids ...string) Event {
	return Event{Op: OpRestore, At: Duration(at), IDs: ids}
}

// TestEngineTimeline drives a small explicit timeline through the common
// ops and checks the resulting trace records in order.
func TestEngineTimeline(t *testing.T) {
	def := testDef("timeline", 10*time.Hour, 5*time.Hour,
		join(0, "a", testCfg("linux"), 10, time.Hour),
		join(time.Hour, "b", testCfg("bsd"), 10, time.Hour),
		power(2*time.Hour, "a", 30),
		migrate(3*time.Hour, "b", testCfg("linux")),
		disclose(vuln.Vulnerability{
			ID: "CVE-T-1", Class: config.ClassOperatingSystem, Product: "linux", Version: "1",
			Disclosed: 4 * time.Hour, PatchAt: 6 * time.Hour, Severity: 1,
		}),
		exploitProbe(4*time.Hour+30*time.Minute, 1),
		leave(8*time.Hour, "b"),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	byEvent := make(map[string]Record)
	for _, rec := range res.Records {
		events = append(events, rec.Event)
		byEvent[rec.Event] = rec // keeps the last of each kind
	}
	want := []string{"join", "tick", "join", "power", "migrate", "disclose", "probe", "tick", "patch", "leave", "tick", "final"}
	if got := strings.Join(events, ","); got != strings.Join(want, ",") {
		t.Fatalf("event order\n got %s\nwant %s", got, strings.Join(want, ","))
	}

	if r := byEvent["power"]; r.Power != 40 {
		t.Errorf("power record total power = %v, want 40", r.Power)
	}
	// After b migrates to linux both replicas share one config: entropy 0.
	if r := byEvent["migrate"]; r.Entropy != 0 || r.Configs != 1 {
		t.Errorf("migrate record entropy=%v configs=%d, want 0 bits / 1 config", r.Entropy, r.Configs)
	}
	// The zero-day on linux now compromises everyone.
	if r := byEvent["disclose"]; r.Compromised != 1 || r.Safe {
		t.Errorf("disclose record Σf=%v safe=%t, want 1 / false", r.Compromised, r.Safe)
	}
	if r := byEvent["probe"]; r.AdvStrategy == "" || r.AdvFraction != 1 || !r.AdvBreaks {
		t.Errorf("probe record adversary fields wrong: %+v", r)
	}
	if r := byEvent["probe"]; r.AdvDetail != "CVE-T-1" {
		t.Errorf("probe detail = %q, want CVE-T-1", r.AdvDetail)
	}
	// Worst window must flag the full compromise somewhere in [0, horizon].
	if r := byEvent["final"]; r.WorstFraction != 1 || r.WorstSafe {
		t.Errorf("final worst-window = %v safe=%t, want 1 / false", r.WorstFraction, r.WorstSafe)
	}
}

// TestSameInstantEventsFireAsListed: events sharing an instant fire in
// listing order, and a disclosure's patch marker counts as listed with its
// disclose — ahead of every later-listed event at the patch instant, whatever
// that event's place among its own instant's events.
func TestSameInstantEventsFireAsListed(t *testing.T) {
	def := testDef("same-instant", 4*time.Hour, 4*time.Hour,
		join(0, "b", testCfg("bsd"), 30, 0),
		join(0, "a", testCfg("linux"), 10, 0),
		disclose(vuln.Vulnerability{
			ID: "CVE-T-2", Class: config.ClassOperatingSystem, Product: "linux", Version: "1",
			Disclosed: time.Hour, PatchAt: 2 * time.Hour, Severity: 1,
		}),
		partition(2*time.Hour, "b"),
		power(2*time.Hour, "b", 50),
		heal(2*time.Hour),
		migrate(2*time.Hour, "a", testCfg("bsd")),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range res.Records {
		if rec.Event != "tick" && rec.Event != "final" {
			got = append(got, rec.Event+" "+strings.Fields(rec.Detail)[0])
		}
	}
	want := "join b,join a,disclose CVE-T-2,patch CVE-T-2,partition 1,power b,heal 1,migrate a"
	if strings.Join(got, ",") != want {
		t.Fatalf("event order\n got %s\nwant %s", strings.Join(got, ","), want)
	}
}

// TestEngineEventErrorAborts: a failing mutation (duplicate join) aborts
// the run with a descriptive error instead of emitting a bogus trace.
func TestEngineEventErrorAborts(t *testing.T) {
	def := testDef("dup", time.Hour, 0,
		join(0, "a", testCfg("linux"), 10, 0),
		join(time.Minute, "a", testCfg("bsd"), 10, 0),
	)
	_, err := Run(def, 1)
	if err == nil {
		t.Fatal("duplicate join did not abort the run")
	}
	if !errors.Is(err, registry.ErrDuplicateReplica) {
		t.Fatalf("error %v does not wrap ErrDuplicateReplica", err)
	}
}

// TestEnginePartitionHeal: partition parks power, heal restores it
// exactly, and double-partitioning is rejected.
func TestEnginePartitionHeal(t *testing.T) {
	def := testDef("part", 4*time.Hour, 4*time.Hour,
		join(0, "a", testCfg("linux"), 10, 0),
		join(0, "b", testCfg("bsd"), 30, 0),
		partition(time.Hour, "b"),
		heal(2*time.Hour),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	var part, healRec Record
	for _, rec := range res.Records {
		switch rec.Event {
		case "partition":
			part = rec
		case "heal":
			healRec = rec
		}
	}
	if part.Power != 10 || part.Replicas != 2 {
		t.Errorf("partition record power=%v replicas=%d, want 10/2", part.Power, part.Replicas)
	}
	if healRec.Power != 40 {
		t.Errorf("heal record power=%v, want 40", healRec.Power)
	}

	unknown := testDef("part-unknown", time.Hour, 0, partition(time.Minute, "ghost"))
	if _, err := Run(unknown, 1); err == nil {
		t.Error("partitioning an unknown replica did not abort")
	}
}

// TestEngineRejoinBeforeHeal: a replica that leaves mid-partition and
// re-joins *before* the heal is a new incarnation — the heal must not
// overwrite its fresh power with the dead incarnation's parked value.
func TestEngineRejoinBeforeHeal(t *testing.T) {
	def := testDef("part-rejoin", 5*time.Hour, 5*time.Hour,
		join(0, "a", testCfg("linux"), 10, 0),
		join(0, "b", testCfg("bsd"), 30, 0),
		partition(time.Hour, "b"),
		leave(2*time.Hour, "b"),
		join(3*time.Hour, "b", testCfg("bsd"), 7, 0),
		// The re-joined incarnation can be partitioned again...
		partition(3*time.Hour+30*time.Minute, "b"),
		// ...and one heal restores only the live incarnation's power.
		heal(4*time.Hour),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Records[len(res.Records)-1]
	if last.Power != 17 {
		t.Errorf("final power %v, want 17 (10 + re-joined 7)", last.Power)
	}
	for _, rec := range res.Records {
		if rec.Event == "heal" && rec.Detail != "1 replicas rejoined" {
			t.Errorf("heal detail %q, want exactly the live incarnation", rec.Detail)
		}
	}
}

// TestEnginePowerShiftDuringPartition: a power shift landing on a
// partitioned replica updates the parked power (it stays at 0 effective
// power until heal, which then restores the shifted value).
func TestEnginePowerShiftDuringPartition(t *testing.T) {
	def := testDef("part-shift", 4*time.Hour, 4*time.Hour,
		join(0, "a", testCfg("linux"), 10, 0),
		join(0, "b", testCfg("bsd"), 30, 0),
		partition(time.Hour, "b"),
		power(2*time.Hour, "b", 50),
		heal(3*time.Hour),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	var shift, healRec Record
	for _, rec := range res.Records {
		switch rec.Event {
		case "power":
			shift = rec
		case "heal":
			healRec = rec
		}
	}
	// While partitioned the shift must not restore the vote...
	if shift.Power != 10 {
		t.Errorf("power during partition = %v, want 10 (b still silenced)", shift.Power)
	}
	if shift.Detail != "b power=50 (partitioned; applies at heal)" {
		t.Errorf("shift detail %q", shift.Detail)
	}
	// ...and the heal restores the shifted value, not the stale one.
	if healRec.Power != 60 {
		t.Errorf("power after heal = %v, want 60 (10 + shifted 50)", healRec.Power)
	}
}

// TestEngineLeaveWhilePartitioned: a replica that leaves mid-partition is
// forgotten at heal — its parked power must not block or corrupt a later
// incarnation of the same id.
func TestEngineLeaveWhilePartitioned(t *testing.T) {
	def := testDef("part-leave", 6*time.Hour, 6*time.Hour,
		join(0, "a", testCfg("linux"), 10, 0),
		join(0, "b", testCfg("bsd"), 30, 0),
		partition(time.Hour, "b"),
		leave(2*time.Hour, "b"),
		heal(3*time.Hour),
		// The id re-joins with different power and gets partitioned
		// again: the dead incarnation's parked power must be gone.
		join(4*time.Hour, "b", testCfg("bsd"), 7, 0),
		partition(5*time.Hour, "b"),
		heal(5*time.Hour+30*time.Minute),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	var heals []Record
	for _, rec := range res.Records {
		if rec.Event == "heal" {
			heals = append(heals, rec)
		}
	}
	if len(heals) != 2 {
		t.Fatalf("saw %d heal records, want 2", len(heals))
	}
	if heals[0].Power != 10 || heals[0].Detail != "0 replicas rejoined" {
		t.Errorf("first heal after leave: power=%v detail=%q", heals[0].Power, heals[0].Detail)
	}
	if heals[1].Power != 17 || heals[1].Detail != "1 replicas rejoined" {
		t.Errorf("second heal restored wrong power: power=%v detail=%q", heals[1].Power, heals[1].Detail)
	}
}

// TestEngineCrashRestore: crash parks power exactly like a partition,
// restore brings it back, and the two fault kinds are mutually exclusive
// per replica.
func TestEngineCrashRestore(t *testing.T) {
	def := testDef("crash", 5*time.Hour, 5*time.Hour,
		join(0, "a", testCfg("linux"), 10, 0),
		join(0, "b", testCfg("bsd"), 30, 0),
		crash(time.Hour, "b"),
		power(90*time.Minute, "b", 50),
		restore(2*time.Hour),
	)
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	var crashRec, shift, restoreRec Record
	for _, rec := range res.Records {
		switch rec.Event {
		case "crash":
			crashRec = rec
		case "power":
			shift = rec
		case "restore":
			restoreRec = rec
		}
	}
	if crashRec.Power != 10 || crashRec.Detail != "1 replicas crashed" {
		t.Errorf("crash record power=%v detail=%q", crashRec.Power, crashRec.Detail)
	}
	if shift.Power != 10 || shift.Detail != "b power=50 (crashed; applies at restore)" {
		t.Errorf("shift record power=%v detail=%q", shift.Power, shift.Detail)
	}
	if restoreRec.Power != 60 || restoreRec.Detail != "1 replicas restored" {
		t.Errorf("restore record power=%v detail=%q", restoreRec.Power, restoreRec.Detail)
	}

	conflict := testDef("crash-partitioned", time.Hour, 0,
		join(0, "a", testCfg("linux"), 10, 0),
		partition(time.Minute, "a"),
		crash(2*time.Minute, "a"),
	)
	if _, err := Run(conflict, 1); err == nil {
		t.Error("crashing a partitioned replica did not abort")
	}
	notCrashed := testDef("restore-up", time.Hour, 0,
		join(0, "a", testCfg("linux"), 10, 0),
		restore(time.Minute, "a"),
	)
	if _, err := Run(notCrashed, 1); err == nil {
		t.Error("restoring an up replica did not abort")
	}
}

// recordingObserver captures EventInfo kinds and annotates records.
type recordingObserver struct {
	kinds []string
	fail  bool
}

func (o *recordingObserver) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	if o.fail {
		return errors.New("observer boom")
	}
	o.kinds = append(o.kinds, info.Kind)
	if info.Kind == "crash" {
		rec.Check = "observed"
		rec.CheckDetail = fmt.Sprintf("%d ids", len(info.IDs))
	}
	return nil
}

// TestEngineObserver: observers see every event with structured info and
// their record annotations land in the trace; an observer error aborts.
func TestEngineObserver(t *testing.T) {
	obs := &recordingObserver{}
	def := testDef("observed", 2*time.Hour, 2*time.Hour,
		join(0, "a", testCfg("linux"), 10, 0),
		join(0, "b", testCfg("bsd"), 10, 0),
		crash(time.Hour, "b"),
		restore(90*time.Minute),
	)
	res, err := Run(def, 1, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	want := "join,join,tick,crash,restore,tick,final"
	if got := strings.Join(obs.kinds, ","); got != want {
		t.Errorf("observer saw %s, want %s", got, want)
	}
	found := false
	for _, rec := range res.Records {
		if rec.Event == "crash" {
			found = true
			if rec.Check != "observed" || rec.CheckDetail != "1 ids" {
				t.Errorf("annotation missing: check=%q detail=%q", rec.Check, rec.CheckDetail)
			}
		}
	}
	if !found {
		t.Fatal("no crash record")
	}

	failing := testDef("observer-fail", time.Hour, 0, join(0, "a", testCfg("linux"), 10, 0))
	if _, err := Run(failing, 1, WithObserver(&recordingObserver{fail: true})); err == nil || !strings.Contains(err.Error(), "observer boom") {
		t.Errorf("observer error not propagated: %v", err)
	}
}

// TestEngineEmptyMembership: records with no effective power carry zeroed
// metrics and stay safe instead of erroring.
func TestEngineEmptyMembership(t *testing.T) {
	def := testDef("empty", 2*time.Hour, time.Hour, join(90*time.Minute, "a", testCfg("linux"), 10, 0))
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Records[0]
	if first.Event != "tick" || first.Replicas != 0 || !first.Safe || first.Entropy != 0 {
		t.Errorf("empty-membership record wrong: %+v", first)
	}
	last := res.Records[len(res.Records)-1]
	if last.Replicas != 1 {
		t.Errorf("final record replicas=%d, want 1", last.Replicas)
	}
}

// TestEngineTickDefault: Tick <= 0 falls back to horizon/24.
func TestEngineTickDefault(t *testing.T) {
	def := testDef("ticks", 24*time.Hour, 0, join(0, "a", testCfg("linux"), 1, 0))
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	for _, rec := range res.Records {
		if rec.Event == "tick" {
			ticks++
		}
	}
	if ticks != 25 { // t=0 through t=24h inclusive, hourly
		t.Errorf("saw %d ticks, want 25", ticks)
	}
}

// TestEngineProbeOnEmptySurface: probing before anyone joined yields an
// empty plan, not an error.
func TestEngineProbeOnEmptySurface(t *testing.T) {
	def := testDef("probe-empty", time.Hour, time.Hour, exploitProbe(time.Minute, 3))
	res, err := Run(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Event == "probe" {
			if rec.AdvFraction != 0 || rec.AdvBreaks {
				t.Errorf("empty-surface probe fraction=%v breaks=%t", rec.AdvFraction, rec.AdvBreaks)
			}
			return
		}
	}
	t.Fatal("no probe record")
}

// TestEngineManyEventsScale exercises a dense synthetic timeline to keep
// the engine's cost model honest: hundreds of churn events and ticks in
// one run, still exact.
func TestEngineManyEventsScale(t *testing.T) {
	var events []Event
	for i := 0; i < 200; i++ {
		events = append(events, join(time.Duration(i)*30*time.Minute, fmt.Sprintf("r-%03d", i),
			testCfg(fmt.Sprintf("os-%d", i%7)), float64(1+i%13), time.Hour))
	}
	for i := 0; i < 50; i++ {
		events = append(events, leave(time.Duration(120+i)*30*time.Minute, fmt.Sprintf("r-%03d", i)))
	}
	def := testDef("dense", 100*time.Hour, time.Hour, events...)
	res, err := Run(def, 3)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Records[len(res.Records)-1]
	if last.Replicas != 150 {
		t.Errorf("final membership %d, want 150", last.Replicas)
	}
	if got := len(res.Records); got != 200+50+101+1 {
		t.Errorf("record count %d, want 352", got)
	}
}

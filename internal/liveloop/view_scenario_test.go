package liveloop

import (
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/scenario"
)

// TestLivePrimaryFailoverRotatesAndPredicts: crashing the initial primary
// on a jittery wire rotates views, commits resume, and every view-aware
// liveness prediction matches the observation.
func TestLivePrimaryFailoverRotatesAndPredicts(t *testing.T) {
	res := runNamed(t, "live-primary-failover", 42)
	sum := res.Summary()
	if sum.Divergences != 0 {
		t.Fatalf("failover path diverged %d times", sum.Divergences)
	}
	if sum.Violations != 0 {
		t.Fatalf("failover path saw %d violation records", sum.Violations)
	}
	if sum.FinalView < 1 || sum.ViewChanges < 1 {
		t.Fatalf("no rotation: final view=%d changes=%d", sum.FinalView, sum.ViewChanges)
	}
	// Commits must resume after the crash: some record after the crash has
	// strictly more live commits than the crash record.
	crashAt := -1
	for i, rec := range res.Records {
		if rec.Event == "crash" {
			crashAt = i
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("no crash record")
	}
	resumed := false
	for _, rec := range res.Records[crashAt+1:] {
		if rec.LiveCommits > res.Records[crashAt].LiveCommits {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Fatal("commits did not resume after the primary crash")
	}
	// At least one post-crash probe predicted a commit via rotation and
	// observed one.
	sawRotatedCommit := false
	for _, rec := range res.Records[crashAt+1:] {
		if rec.Check == "liveness" && rec.LiveView >= 1 &&
			strings.Contains(rec.CheckDetail, "predicted=true observed=true") {
			sawRotatedCommit = true
		}
	}
	if !sawRotatedCommit {
		t.Fatal("no post-crash probe committed under the rotated primary")
	}
	// The degrade and restore-link events land on the trace with details.
	var degrade, restore *scenario.Record
	for i := range res.Records {
		switch res.Records[i].Event {
		case "degrade":
			degrade = &res.Records[i]
		case "restore-link":
			restore = &res.Records[i]
		}
	}
	if degrade == nil || !strings.Contains(degrade.Detail, "drop=0.2") {
		t.Fatalf("degrade record missing or wrong: %+v", degrade)
	}
	if restore == nil || !strings.Contains(restore.Detail, "clean") {
		t.Fatalf("restore-link record missing or wrong: %+v", restore)
	}
}

// TestLiveLossyRotationRecoversAndRotates: the silence attack stalls the
// cluster, reactive recovery cleanses it (TTR recorded), the backlog
// commits after a view change, and the day-2 primary crash rotates again —
// all on degraded links, with zero prediction divergences.
func TestLiveLossyRotationRecoversAndRotates(t *testing.T) {
	res := runNamed(t, "live-lossy-rotation", 42)
	sum := res.Summary()
	if sum.Divergences != 0 {
		t.Fatalf("lossy rotation diverged %d times", sum.Divergences)
	}
	if sum.Violations != 0 {
		t.Fatalf("silence attack produced %d violation records", sum.Violations)
	}
	if sum.Breaches != 1 || sum.Recoveries != 1 {
		t.Fatalf("breaches=%d recoveries=%d, want 1/1", sum.Breaches, sum.Recoveries)
	}
	if sum.MaxTTR != 6*time.Hour {
		t.Fatalf("TTR %v, want the 6h react delay", sum.MaxTTR)
	}
	if sum.ViewChanges < 2 {
		t.Fatalf("view changes=%d, want >= 2 (post-recovery catch-up and post-crash rotation)", sum.ViewChanges)
	}
	// The day-2 crash hits the post-recovery primary; the view must advance
	// past it and commits must resume.
	var crash *scenario.Record
	crashIdx := -1
	for i := range res.Records {
		if res.Records[i].Event == "crash" {
			crash = &res.Records[i]
			crashIdx = i
		}
	}
	if crash == nil {
		t.Fatal("no crash record")
	}
	rotated, resumed := false, false
	for _, rec := range res.Records[crashIdx+1:] {
		if rec.LiveView > crash.LiveView {
			rotated = true
		}
		if rec.LiveCommits > crash.LiveCommits {
			resumed = true
		}
	}
	if !rotated || !resumed {
		t.Fatalf("after primary crash: rotated=%t resumed=%t", rotated, resumed)
	}
}

// TestTimelineLiveAttach: a timeline carrying a LiveSpec boots the live
// harness through the hook this package registers in init, and the run
// rotates views over a lossy wire.
func TestTimelineLiveAttach(t *testing.T) {
	osSpec := func(name string) []scenario.ComponentSpec {
		return []scenario.ComponentSpec{{Class: config.ClassOperatingSystem.String(), Name: name, Version: "1"}}
	}
	names := []string{"ubuntu", "debian", "fedora", "freebsd", "openbsd", "alpine", "arch"}
	events := make([]scenario.Event, 0, len(names)+3)
	for i, n := range names {
		events = append(events, scenario.Event{
			Op: scenario.OpJoin, At: 0, ID: "r-0" + string(rune('0'+i)), Config: osSpec(n), Power: 1,
		})
	}
	events = append(events,
		scenario.Event{Op: scenario.OpDegrade, At: scenario.Duration(2 * time.Hour),
			IDs: []string{"r-05", "r-06"}, Fault: &scenario.FaultSpec{Drop: 0.3, Reorder: 0.2}},
		scenario.Event{Op: scenario.OpCrash, At: scenario.Duration(4 * time.Hour), IDs: []string{"r-00"}},
		scenario.Event{Op: scenario.OpRestoreLink, At: scenario.Duration(8 * time.Hour),
			IDs: []string{"r-05", "r-06"}},
	)
	tl := &scenario.Timeline{
		Name:    "live-tl-rotation",
		Horizon: scenario.Duration(12 * time.Hour),
		Tick:    scenario.Duration(2 * time.Hour),
		Live: &scenario.LiveSpec{
			StartAt:       scenario.Duration(time.Hour),
			ProbeEvery:    scenario.Duration(2 * time.Hour),
			ProbeDeadline: scenario.Duration(5 * time.Second),
			ViewTimeout:   scenario.Duration(500 * time.Millisecond),
		},
		Events: events,
	}
	res, err := scenario.Run(tl.Def(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Divergences != 0 {
		t.Fatalf("timeline live run diverged %d times", sum.Divergences)
	}
	if sum.FinalView < 1 {
		t.Fatalf("timeline live run never rotated: final view=%d", sum.FinalView)
	}
	last := res.Records[len(res.Records)-1]
	if !last.Live || last.LiveCommits == 0 {
		t.Fatalf("final record live=%t commits=%d", last.Live, last.LiveCommits)
	}
}

// TestGeneratedLossyWireViewLiveness: lossy-wire timelines generated by
// the fuzzing profile run under the real live harness (this package's init
// hook) with zero invariant violations — in particular view-liveness — and
// at least one of them rotates views.
func TestGeneratedLossyWireViewLiveness(t *testing.T) {
	p, ok := scenario.LookupProfile("lossy-wire")
	if !ok {
		t.Fatal("lossy-wire profile not registered")
	}
	rotated := false
	for i := 0; i < 8; i++ {
		tl := p.Generate(42, i)
		res, violations, err := scenario.CheckRun(tl.Def(), 42, scenario.DefaultInvariants())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(violations) != 0 {
			t.Fatalf("run %d: %d invariant violations, first: %s: %s", i, len(violations), violations[0].Invariant, violations[0].Detail)
		}
		sum := res.Summary()
		if sum.Divergences != 0 {
			t.Fatalf("run %d: %d prediction divergences", i, sum.Divergences)
		}
		if sum.FinalView > 0 {
			rotated = true
		}
	}
	if !rotated {
		t.Fatal("no generated lossy-wire run ever rotated views")
	}
}

// TestViewTimeoutValidation: a negative view_timeout fails at parse.
func TestViewTimeoutValidation(t *testing.T) {
	data := liveTimeline(t, 7, 1, scenario.LiveSpec{ViewTimeout: at(-time.Second)})
	if _, err := scenario.ParseTimeline(data); err == nil || !strings.Contains(err.Error(), "negative live cadence") {
		t.Fatalf("negative view_timeout accepted: %v", err)
	}
}

package liveloop

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// runNamed resolves a registered scenario and runs it through the unified
// Run entrypoint.
func runNamed(t *testing.T, name string, seed int64) *scenario.Result {
	t.Helper()
	def, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	res, err := scenario.Run(def, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// traceJSON renders a whole trace as its canonical JSONL bytes.
func traceJSON(t *testing.T, res *scenario.Result) string {
	t.Helper()
	var b strings.Builder
	for _, rec := range res.Records {
		line, err := rec.JSON()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestLivePartitionProbeHonestPath(t *testing.T) {
	res := runNamed(t, "live-partition-probe", 42)
	sum := res.Summary()
	if sum.Divergences != 0 {
		t.Fatalf("honest path diverged %d times", sum.Divergences)
	}
	if sum.Violations != 0 || sum.Breaches != 0 {
		t.Fatalf("honest path reported violations=%d breaches=%d", sum.Violations, sum.Breaches)
	}
	if sum.Checks == 0 {
		t.Fatal("no cross-checks ran")
	}
	// The wide partition (4 < quorum 5) must produce at least one probe
	// that predicted a stall and observed one; commits must flow otherwise.
	var sawStall, sawCommit bool
	for _, rec := range res.Records {
		if rec.Check != "liveness" {
			continue
		}
		if strings.Contains(rec.CheckDetail, "predicted=false observed=false") {
			sawStall = true
		}
		if strings.Contains(rec.CheckDetail, "predicted=true observed=true") {
			sawCommit = true
		}
	}
	if !sawStall || !sawCommit {
		t.Fatalf("probe mix wrong: sawStall=%t sawCommit=%t", sawStall, sawCommit)
	}
	last := res.Records[len(res.Records)-1]
	if !last.Live || last.LiveCommits == 0 {
		t.Fatalf("final record live=%t commits=%d", last.Live, last.LiveCommits)
	}
}

func TestLiveCompromiseCascadeBreaksAgreementOnCue(t *testing.T) {
	res := runNamed(t, "live-compromise-cascade", 42)
	sum := res.Summary()
	if sum.Divergences != 0 {
		t.Fatalf("predicted compromise diverged %d times", sum.Divergences)
	}
	if sum.Breaches != 1 {
		t.Fatalf("breaches=%d, want 1", sum.Breaches)
	}
	if sum.Recoveries != 0 {
		t.Fatalf("no recovery configured but recoveries=%d", sum.Recoveries)
	}
	if sum.Violations == 0 {
		t.Fatal("equivocation produced no observed violation")
	}
	var verdict *scenario.Record
	for i := range res.Records {
		if res.Records[i].Check == "safety" {
			verdict = &res.Records[i]
		}
	}
	if verdict == nil {
		t.Fatal("no safety verdict record")
	}
	if !strings.Contains(verdict.CheckDetail, "predicted=true observed=true") {
		t.Fatalf("verdict detail %q, want predicted=true observed=true", verdict.CheckDetail)
	}
	// The breach record carries the span start; it never closes.
	for _, rec := range res.Records {
		if rec.BreachAtNanos != 0 && rec.BreachAtNanos != int64(day) {
			t.Fatalf("breach at %v, want the disclosure instant", time.Duration(rec.BreachAtNanos))
		}
		if rec.RecoverAtNanos != 0 {
			t.Fatalf("unexpected recovery at %v", time.Duration(rec.RecoverAtNanos))
		}
	}
}

func TestLiveReactiveRecoveryBoundsTTR(t *testing.T) {
	res := runNamed(t, "live-reactive-recovery", 42)
	sum := res.Summary()
	if sum.Divergences != 0 {
		t.Fatalf("reactive path diverged %d times", sum.Divergences)
	}
	if sum.Violations != 0 {
		t.Fatalf("reactive path saw %d violation records", sum.Violations)
	}
	if sum.Breaches != 1 || sum.Recoveries != 1 {
		t.Fatalf("breaches=%d recoveries=%d, want 1/1", sum.Breaches, sum.Recoveries)
	}
	if sum.MaxTTR != 6*time.Hour {
		t.Fatalf("TTR %v, want the 6h react delay", sum.MaxTTR)
	}
	var react, verdict *scenario.Record
	for i := range res.Records {
		switch res.Records[i].Event {
		case "live-react":
			react = &res.Records[i]
		case "live-verdict":
			verdict = &res.Records[i]
		}
	}
	if react == nil || react.RecoverNanos != int64(6*time.Hour) {
		t.Fatalf("react record missing or wrong TTR: %+v", react)
	}
	if !strings.Contains(react.Detail, "->") || !strings.Contains(react.Detail, "rejuvenated") {
		t.Fatalf("react detail %q lacks migration+rejuvenation", react.Detail)
	}
	// The day-5 attack must find nothing to trigger.
	if verdict == nil || verdict.Divergence {
		t.Fatalf("verdict record missing or divergent: %+v", verdict)
	}
	var attack *scenario.Record
	for i := range res.Records {
		if res.Records[i].Event == "live-attack" {
			attack = &res.Records[i]
		}
	}
	if attack == nil || !strings.Contains(attack.Detail, "skipped") {
		t.Fatalf("attack record missing or not skipped: %+v", attack)
	}
}

// TestLiveTracesAreByteDeterministic: same (scenario, seed) twice produces
// identical JSONL including the live annotations, check results and
// recovery spans — the property the CI replay job enforces for -live.
func TestLiveTracesAreByteDeterministic(t *testing.T) {
	for _, name := range []string{"live-partition-probe", "live-compromise-cascade", "live-reactive-recovery",
		"live-primary-failover", "live-lossy-rotation"} {
		a := traceJSON(t, runNamed(t, name, 42))
		b := traceJSON(t, runNamed(t, name, 42))
		if a != b {
			t.Fatalf("%s: two runs differ", name)
		}
		if !strings.Contains(a, `"live":true`) {
			t.Fatalf("%s: trace carries no live annotations", name)
		}
	}
}

// TestLiveScenariosRegistered: the library registers every live scenario
// under the "live" tag that cmd/scenarios run -live selects.
func TestLiveScenariosRegistered(t *testing.T) {
	want := []string{"live-partition-probe", "live-compromise-cascade", "live-reactive-recovery",
		"live-primary-failover", "live-lossy-rotation"}
	for _, name := range want {
		d, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		tagged := false
		for _, tag := range d.Tags {
			if tag == "live" {
				tagged = true
			}
		}
		if !tagged {
			t.Fatalf("%s lacks the live tag", name)
		}
	}
}

// liveTimeline is a one-hour timeline of n unit-power replicas (the first
// with power p0) carrying the given live block, as the JSON an operator
// would hand the CLI.
func liveTimeline(t *testing.T, n int, p0 float64, live scenario.LiveSpec) []byte {
	t.Helper()
	tl := &scenario.Timeline{Name: "attach-bad", Horizon: at(time.Hour), Live: &live}
	for i := 0; i < n; i++ {
		tl.Events = append(tl.Events, scenario.Event{Op: scenario.OpJoin, ID: fmt.Sprintf("r-%02d", i), Config: osSpec("mint", "1"), Power: 1})
	}
	tl.Events[0].Power = p0
	data, err := tl.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAttachValidation: a bad live block fails when the timeline is parsed,
// with the timeline's name, never mid-run; what only the run can show — the
// membership at start_at — fails the run at that instant.
func TestAttachValidation(t *testing.T) {
	for why, live := range map[string]scenario.LiveSpec{
		"start_at past the horizon":    {StartAt: at(2 * time.Hour)},
		"start_at at the horizon":      {StartAt: at(time.Hour)},
		"reactive without react_delay": {Reactive: true},
		"attack_at past the horizon":   {AttackAt: at(2 * time.Hour)},
		"an unknown attack":            {Attack: "bribe"},
	} {
		if _, err := scenario.ParseTimeline(liveTimeline(t, 7, 1, live)); err == nil || !strings.Contains(err.Error(), "timeline attach-bad: live") {
			t.Errorf("%s accepted at parse: %v", why, err)
		}
	}
	for why, data := range map[string][]byte{
		"at least 4 replicas": liveTimeline(t, 3, 1, scenario.LiveSpec{StartAt: at(time.Minute)}),
		"equal-power":         liveTimeline(t, 7, 2, scenario.LiveSpec{StartAt: at(time.Minute)}),
	} {
		tl, err := scenario.ParseTimeline(data)
		if err != nil {
			t.Fatalf("%s: %v", why, err)
		}
		if _, err := scenario.Run(tl.Def(), 1); err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("a membership breaking %q ran: %v", why, err)
		}
	}
}

// TestLiveMembershipIsFixed: a join after StartAt aborts the run.
func TestLiveMembershipIsFixed(t *testing.T) {
	tl := &scenario.Timeline{
		Name: "live-join-after-start", Horizon: at(3 * time.Hour),
		Live: &scenario.LiveSpec{StartAt: at(time.Hour)},
		Events: sevenThen(diverseSeven(), time.Hour, scenario.Event{
			Op: scenario.OpJoin, At: at(2 * time.Hour), ID: "r-99", Config: osSpec("mint", "1"), Power: 1, PatchLatency: at(time.Hour),
		}),
	}
	if _, err := scenario.Run(tl.Def(), 1); err == nil || !strings.Contains(err.Error(), "fixed membership") {
		t.Fatalf("join after start did not abort: %v", err)
	}
}

package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// fullGrammarTimeline exercises every op the grammar has, in a run that
// succeeds end to end.
func fullGrammarTimeline() *Timeline {
	h := Duration(48 * time.Hour)
	return &Timeline{
		Name:    "tl-full-grammar",
		Title:   "every op once",
		Tags:    []string{"test"},
		Horizon: h,
		Tick:    Duration(6 * time.Hour),
		Events: []Event{
			{Op: OpJoin, At: 0, ID: "r-0", Config: osSpec("linux", "1"), Power: 3, PatchLatency: Duration(time.Hour)},
			{Op: OpJoin, At: 0, ID: "r-1", Config: osSpec("bsd", "1"), Power: 2},
			{Op: OpJoin, At: Duration(time.Hour), ID: "r-2", Config: osSpec("illumos", "1"), Power: 1},
			{Op: OpDisclose, At: Duration(2 * time.Hour), Vuln: &VulnSpec{
				ID: "CVE-TL-1", Class: config.ClassOperatingSystem.String(), Product: "linux", Version: "1",
				Disclosed: Duration(2 * time.Hour), PatchAt: Duration(20 * time.Hour), Severity: 1,
			}},
			{Op: OpPower, At: Duration(3 * time.Hour), ID: "r-1", Power: 4},
			{Op: OpPartition, At: Duration(4 * time.Hour), IDs: []string{"r-2"}},
			{Op: OpProbe, At: Duration(5 * time.Hour), Strategy: &StrategySpec{Kind: "adaptive", Strategies: []StrategySpec{
				{Kind: "exploit", Budget: 1}, {Kind: "corruption", Budget: 1},
			}}},
			{Op: OpHeal, At: Duration(6 * time.Hour)},
			{Op: OpRotate, At: Duration(7 * time.Hour), Size: 2},
			{Op: OpCrash, At: Duration(8 * time.Hour), IDs: []string{"r-1"}},
			{Op: OpRestore, At: Duration(10 * time.Hour)},
			{Op: OpMigrate, At: Duration(12 * time.Hour), ID: "r-0", Config: osSpec("haiku", "2")},
			{Op: OpDegrade, At: Duration(14 * time.Hour), IDs: []string{"r-0", "r-1"}, Fault: &FaultSpec{
				Drop: 0.2, ExtraLatency: Duration(10 * time.Millisecond), Jitter: Duration(5 * time.Millisecond),
				Duplicate: 0.1, Reorder: 0.3,
			}},
			{Op: OpRestoreLink, At: Duration(16 * time.Hour), IDs: []string{"r-0", "r-1"}},
			{Op: OpLeave, At: Duration(30 * time.Hour), ID: "r-2"},
		},
	}
}

// TestTimelineRoundTrip: marshal -> parse -> marshal is byte-identical, and
// the parsed timeline replays the same trace as the original.
func TestTimelineRoundTrip(t *testing.T) {
	tl := fullGrammarTimeline()
	first, err := tl.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTimeline(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := parsed.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("round-trip not byte-identical:\n%s\n---\n%s", first, second)
	}

	a, err := Run(tl.Def(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parsed.Def(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := mustTraceJSON(t, a), mustTraceJSON(t, b); ja != jb {
		t.Fatal("parsed timeline replays a different trace than the original")
	}
}

// fullGrammarJSON is fullGrammarTimeline as an operator would write it by
// hand: the README's spelling of every key, durations in mixed units,
// zero-valued keys left out.
const fullGrammarJSON = `{
  "name": "tl-full-grammar", "title": "every op once", "tags": ["test"],
  "horizon": "48h", "tick": "6h",
  "events": [
    {"op": "join", "at": "0s", "id": "r-0", "power": 3, "patch_latency": "1h",
     "config": [{"class": "operating-system", "name": "linux", "version": "1"}]},
    {"op": "join", "at": "0s", "id": "r-1", "power": 2,
     "config": [{"class": "operating-system", "name": "bsd", "version": "1"}]},
    {"op": "join", "at": "60m", "id": "r-2", "power": 1,
     "config": [{"class": "operating-system", "name": "illumos", "version": "1"}]},
    {"op": "disclose", "at": "2h", "vuln": {"id": "CVE-TL-1", "class": "operating-system",
     "product": "linux", "version": "1", "disclosed": "2h", "patch_at": "20h", "severity": 1}},
    {"op": "power", "at": "3h", "id": "r-1", "power": 4},
    {"op": "partition", "at": "4h", "ids": ["r-2"]},
    {"op": "probe", "at": "5h", "strategy": {"kind": "adaptive", "strategies": [
      {"kind": "exploit", "budget": 1}, {"kind": "corruption", "budget": 1}]}},
    {"op": "heal", "at": "6h"},
    {"op": "rotate", "at": "7h", "size": 2},
    {"op": "crash", "at": "8h", "ids": ["r-1"]},
    {"op": "restore", "at": "10h"},
    {"op": "migrate", "at": "12h", "id": "r-0",
     "config": [{"class": "operating-system", "name": "haiku", "version": "2"}]},
    {"op": "degrade", "at": "14h", "ids": ["r-0", "r-1"], "fault": {"drop": 0.2,
     "extra_latency": "10ms", "jitter": "5ms", "duplicate": 0.1, "reorder": 0.3}},
    {"op": "restore-link", "at": "16h", "ids": ["r-0", "r-1"]},
    {"op": "leave", "at": "30h", "id": "r-2"}
  ]
}`

// TestTimelineMatchesEquivalentSetup: the Go-literal timeline and the same
// timeline written by hand as JSON are one value and run to byte-identical
// traces — there is one grammar, and the file spelling of every op and key
// is pinned here. (The name dates from when a second, closure grammar
// existed and this test compared the two.)
func TestTimelineMatchesEquivalentSetup(t *testing.T) {
	tl := fullGrammarTimeline()
	parsed, err := ParseTimeline([]byte(fullGrammarJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, parsed) {
		t.Fatalf("hand-written JSON parses to a different timeline:\n%+v\n---\n%+v", parsed, tl)
	}
	a, err := Run(tl.Def(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parsed.Def(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) == 0 {
		t.Fatal("empty trace")
	}
	if ja, jb := mustTraceJSON(t, a), mustTraceJSON(t, b); ja != jb {
		t.Fatalf("literal and JSON traces differ:\n%s\n---\n%s", ja, jb)
	}
}

func mustTraceJSON(t *testing.T, res *Result) string {
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

// TestTimelineValidate rejects each malformed shape with a positioned error.
func TestTimelineValidate(t *testing.T) {
	base := func() *Timeline {
		return &Timeline{
			Name:    "tl-bad",
			Horizon: Duration(10 * time.Hour),
			Events: []Event{
				{Op: OpJoin, At: 0, ID: "r-0", Config: osSpec("linux", "1"), Power: 1},
			},
		}
	}
	cases := []struct {
		name string
		mod  func(tl *Timeline)
		want string
	}{
		{"no name", func(tl *Timeline) { tl.Name = "" }, "without a name"},
		{"zero horizon", func(tl *Timeline) { tl.Horizon = 0 }, "non-positive horizon"},
		{"negative tick", func(tl *Timeline) { tl.Tick = -1 }, "negative tick"},
		{"descending events", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpHeal, At: Duration(2 * time.Hour)},
				Event{Op: OpHeal, At: Duration(time.Hour)})
		}, "precedes"},
		{"beyond horizon", func(tl *Timeline) {
			tl.Events[0].At = Duration(11 * time.Hour)
		}, "beyond horizon"},
		{"negative time", func(tl *Timeline) { tl.Events[0].At = -1 }, "negative time"},
		{"join without id", func(tl *Timeline) { tl.Events[0].ID = "" }, "without a replica id"},
		{"join without config", func(tl *Timeline) { tl.Events[0].Config = nil }, "without a configuration"},
		{"join with bad class", func(tl *Timeline) { tl.Events[0].Config[0].Class = "flux-capacitor" }, "unknown component class"},
		{"join with zero power", func(tl *Timeline) { tl.Events[0].Power = 0 }, "non-positive power"},
		{"join with negative latency", func(tl *Timeline) { tl.Events[0].PatchLatency = -1 }, "negative patch latency"},
		{"disclose without vuln", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpDisclose, At: Duration(time.Hour)})
		}, "disclose without a vulnerability"},
		{"disclose at wrong instant", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpDisclose, At: Duration(time.Hour), Vuln: &VulnSpec{
				ID: "CVE-X", Class: config.ClassOperatingSystem.String(), Product: "linux", Version: "1",
				Disclosed: Duration(2 * time.Hour), PatchAt: Duration(3 * time.Hour), Severity: 1,
			}})
		}, "must match"},
		{"partition without ids", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpPartition, At: Duration(time.Hour)})
		}, "without replica ids"},
		{"probe without strategy", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpProbe, At: Duration(time.Hour)})
		}, "probe without a strategy"},
		{"probe with unknown strategy", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpProbe, At: Duration(time.Hour),
				Strategy: &StrategySpec{Kind: "bribery"}})
		}, "unknown strategy kind"},
		{"adaptive without subs", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpProbe, At: Duration(time.Hour),
				Strategy: &StrategySpec{Kind: "adaptive"}})
		}, "needs sub-strategies"},
		{"degrade with one endpoint", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpDegrade, At: Duration(time.Hour),
				IDs: []string{"r-0"}, Fault: &FaultSpec{Drop: 0.5}})
		}, "two distinct link endpoints"},
		{"degrade with same endpoint twice", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpDegrade, At: Duration(time.Hour),
				IDs: []string{"r-0", "r-0"}, Fault: &FaultSpec{Drop: 0.5}})
		}, "two distinct link endpoints"},
		{"degrade without fault", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpDegrade, At: Duration(time.Hour),
				IDs: []string{"r-0", "r-1"}})
		}, "degrade without a fault model"},
		{"degrade with certain drop", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpDegrade, At: Duration(time.Hour),
				IDs: []string{"r-0", "r-1"}, Fault: &FaultSpec{Drop: 1}})
		}, "drop"},
		{"restore-link with one endpoint", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpRestoreLink, At: Duration(time.Hour),
				IDs: []string{"r-0"}})
		}, "two distinct link endpoints"},
		{"negative live start", func(tl *Timeline) {
			tl.Live = &LiveSpec{StartAt: -1}
		}, "live start"},
		{"live start beyond horizon", func(tl *Timeline) {
			tl.Live = &LiveSpec{StartAt: Duration(11 * time.Hour)}
		}, "live start"},
		{"negative live cadence", func(tl *Timeline) {
			tl.Live = &LiveSpec{StartAt: 0, ViewTimeout: -1}
		}, "negative live cadence"},
		{"unknown op", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: "teleport", At: Duration(time.Hour)})
		}, "unknown op"},
		{"rotate without size", func(tl *Timeline) {
			tl.Events = append(tl.Events, Event{Op: OpRotate, At: Duration(time.Hour)})
		}, "non-positive committee size"},
	}
	// One operand its op does not use, per op: each used to parse, run, and
	// be silently dropped.
	linux, drop := osSpec("linux", "1"), &FaultSpec{Drop: 0.5}
	cve := &VulnSpec{ID: "CVE-X", Class: "operating-system", Product: "linux", Disclosed: Duration(time.Hour), PatchAt: Duration(2 * time.Hour), Severity: 1}
	for _, stray := range []struct {
		ev   Event
		want string
	}{
		{Event{Op: OpJoin, ID: "r-1", Config: linux, Power: 1, Size: 3}, "join carries size"},
		{Event{Op: OpLeave, ID: "r-0", Power: 2, PatchLatency: Duration(time.Hour)}, "leave carries power, patch_latency"},
		{Event{Op: OpPower, ID: "r-0", Power: 2, IDs: []string{"r-0"}}, "power carries ids"},
		{Event{Op: OpMigrate, ID: "r-0", Config: linux, Power: 2}, "migrate carries power"},
		{Event{Op: OpDisclose, Vuln: cve, ID: "r-0"}, "disclose carries id"},
		{Event{Op: OpPartition, IDs: []string{"r-0"}, Fault: drop}, "partition carries fault"},
		{Event{Op: OpHeal, IDs: []string{"r-0"}, Power: 2, Vuln: cve}, "heal carries ids, power, vuln"},
		{Event{Op: OpCrash, IDs: []string{"r-0"}, ID: "r-0"}, "crash carries id"},
		{Event{Op: OpRestore, Config: linux}, "restore carries config"},
		{Event{Op: OpProbe, Strategy: &StrategySpec{Kind: "exploit", Budget: 1}, Power: 1}, "probe carries power"},
		{Event{Op: OpDegrade, IDs: []string{"r-0", "r-1"}, Fault: drop, Strategy: &StrategySpec{Kind: "exploit"}}, "degrade carries strategy"},
		{Event{Op: OpRestoreLink, IDs: []string{"r-0", "r-1"}, Fault: drop}, "restore-link carries fault"},
		{Event{Op: OpRotate, Size: 3, ID: "r-0"}, "rotate carries id"},
	} {
		ev := stray.ev
		ev.At = Duration(time.Hour)
		cases = append(cases, struct {
			name string
			mod  func(tl *Timeline)
			want string
		}{"stray operand on " + ev.Op, func(tl *Timeline) { tl.Events = append(tl.Events, ev) }, "event 1: " + stray.want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl := base()
			tc.mod(tl)
			err := tl.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base timeline should validate: %v", err)
	}
}

// TestLiveSpecValidate: Validate is the one place the whole live block is
// checked, so a hand-edited block fails at parse with the timeline's name
// instead of mid-Apply in the harness.
func TestLiveSpecValidate(t *testing.T) {
	const horizon = 2 * time.Hour
	h := func(d time.Duration) Duration { return Duration(d) }
	cases := []struct {
		name string
		live LiveSpec
		want string // "" = valid
	}{
		{"zero block", LiveSpec{}, ""},
		{"start just inside the horizon", LiveSpec{StartAt: h(horizon - 1)}, ""},
		{"start at the horizon", LiveSpec{StartAt: h(horizon)}, "live start 2h0m0s outside [0, 2h0m0s)"},
		{"negative start", LiveSpec{StartAt: -1}, "live start"},
		{"negative latency", LiveSpec{Latency: -1}, "negative live cadence"},
		{"negative probe cadence", LiveSpec{ProbeEvery: -1}, "negative live cadence"},
		{"negative probe deadline", LiveSpec{ProbeDeadline: -1}, "negative live cadence"},
		{"negative view timeout", LiveSpec{ViewTimeout: -1}, "negative live cadence"},
		{"negative attack_at", LiveSpec{AttackAt: -1}, "negative live cadence"},
		{"negative react_delay", LiveSpec{ReactDelay: -1}, "negative live cadence"},
		{"both attack names", LiveSpec{Attack: AttackSilence}, ""},
		{"unknown attack", LiveSpec{Attack: "bribe"}, `live attack "bribe"`},
		{"reactive without a delay", LiveSpec{Reactive: true}, "positive react_delay"},
		{"reactive", LiveSpec{Reactive: true, ReactDelay: h(time.Minute)}, ""},
		{"attack_at at start", LiveSpec{StartAt: h(time.Hour), AttackAt: h(time.Hour)}, "live attack_at"},
		{"attack_at inside", LiveSpec{StartAt: h(time.Hour), AttackAt: h(time.Hour + 1)}, ""},
		{"attack_at a default deadline short of the horizon", LiveSpec{AttackAt: h(horizon - 500*time.Millisecond)}, "live attack_at 1h59m59.5s outside (0s, 1h59m59.5s)"},
		{"attack_at just before that", LiveSpec{AttackAt: h(horizon - 500*time.Millisecond - 1)}, ""},
		{"attack_at against its own deadline", LiveSpec{AttackAt: h(time.Hour), ProbeDeadline: h(time.Hour)}, "live attack_at"},
		{"targets", LiveSpec{Targets: osSpec("rocky", "1")}, ""},
		{"targets with a bad class", LiveSpec{Targets: []ComponentSpec{{Class: "flux-capacitor", Name: "x"}}}, "live targets"},
		{"targets without a name", LiveSpec{Targets: []ComponentSpec{{Class: "operating-system"}}}, "live targets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.live
			tl := &Timeline{Name: "tl-live", Horizon: h(horizon), Live: &live}
			data, err := tl.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			_, err = ParseTimeline(data)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "timeline tl-live: ") || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("ParseTimeline = %v, want an error naming the timeline and %q", err, tc.want)
			}
		})
	}
	// An artefact from before the five newer keys existed parses, re-marshals
	// byte for byte and means the default attack.
	old := "{\n  \"name\": \"tl-old\",\n  \"horizon\": \"2h0m0s\",\n  \"live\": {\n    \"start_at\": \"1h0m0s\",\n    \"view_timeout\": \"500ms\"\n  },\n  \"events\": null\n}\n"
	tl, err := ParseTimeline([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := tl.MarshalIndent(); err != nil || string(again) != old {
		t.Fatalf("old live block does not re-marshal byte for byte (%v):\n%s", err, again)
	}
	if got := tl.Live.WithDefaults(); got.Attack != AttackEquivocate || got.ProbeDeadline.D() != 500*time.Millisecond || got.Latency.D() != 20*time.Millisecond {
		t.Fatalf("defaults of an old live block: %+v", got)
	}
}

// TestDurationJSON: durations marshal as strings and unmarshal from both
// strings and raw nanoseconds.
func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1h30m0s"` {
		t.Fatalf("marshalled as %s", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"2h"`), &d); err != nil || d.D() != 2*time.Hour {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(fmt.Sprint(int64(3*time.Hour))), &d); err != nil || d.D() != 3*time.Hour {
		t.Fatalf("nanoseconds form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"3 parsecs"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
	if err := json.Unmarshal([]byte(`{}`), &d); err == nil {
		t.Fatal("object accepted as duration")
	}
}

// TestTimelineClone: mutating a clone leaves the original untouched.
func TestTimelineClone(t *testing.T) {
	tl := fullGrammarTimeline()
	tl.Live = &LiveSpec{StartAt: Duration(time.Hour), Targets: osSpec("rocky", "1")}
	orig, err := tl.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	cl := tl.Clone()
	cl.Live.Targets[0].Name = "mutated"
	cl.Events = cl.Events[:3]
	cl.Events[0].ID = "mutated"
	cl.Events[0].Config[0].Name = "mutated"
	for i := range cl.Events {
		if cl.Events[i].Vuln != nil {
			cl.Events[i].Vuln.ID = "mutated"
		}
		if cl.Events[i].Strategy != nil {
			cl.Events[i].Strategy.Kind = "mutated"
		}
	}
	after, err := tl.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(after) {
		t.Fatal("mutating a clone changed the original")
	}
}

// TestSortEvents: out-of-order construction normalizes to ascending At with
// stable same-instant ordering.
func TestSortEvents(t *testing.T) {
	tl := &Timeline{
		Name: "tl-sort", Horizon: Duration(10 * time.Hour),
		Events: []Event{
			{Op: OpHeal, At: Duration(5 * time.Hour)},
			{Op: OpJoin, At: 0, ID: "a", Config: osSpec("linux", "1"), Power: 1},
			{Op: OpJoin, At: 0, ID: "b", Config: osSpec("bsd", "1"), Power: 1},
			{Op: OpLeave, At: Duration(2 * time.Hour), ID: "a"},
		},
	}
	if err := tl.Validate(); err == nil {
		t.Fatal("unsorted timeline validated")
	}
	tl.SortEvents()
	if err := tl.Validate(); err != nil {
		t.Fatalf("sorted timeline failed validation: %v", err)
	}
	if tl.Events[0].ID != "a" || tl.Events[1].ID != "b" {
		t.Fatal("same-instant ordering not stable")
	}
	if tl.Events[3].Op != OpHeal {
		t.Fatalf("events not ascending: %+v", tl.Events)
	}
}

// TestValidateComponentWording pins, byte for byte, what Validate says about
// a join's or a migration's component specs: an unknown class, an empty
// name, an empty configuration, and a list holding both of the first two
// (every class is parsed before any name is checked). The golden timeline
// and the live library's JSON still parse.
func TestValidateComponentWording(t *testing.T) {
	const prefix = "scenario: timeline tl-wording: event 1: "
	osClass := config.ClassOperatingSystem.String()
	cases := []struct {
		name   string
		config []ComponentSpec
		want   string // %s is the op
	}{
		{"unknown class", []ComponentSpec{{Class: "flux-capacitor", Name: "x", Version: "1"}},
			`config: unknown component class "flux-capacitor"`},
		{"empty name", []ComponentSpec{{Class: osClass, Version: "1"}},
			"config: empty component name in class operating-system"},
		{"empty config", nil, "%s r-1 without a configuration"},
		{"empty name, then unknown class", []ComponentSpec{{Class: osClass}, {Class: "flux-capacitor", Name: "x"}},
			`config: unknown component class "flux-capacitor"`},
	}
	for _, op := range []string{OpJoin, OpMigrate} {
		for _, tc := range cases {
			ev := Event{Op: op, At: Duration(time.Hour), ID: "r-1", Config: tc.config}
			if op == OpJoin {
				ev.Power = 1
			}
			tl := &Timeline{Name: "tl-wording", Horizon: Duration(10 * time.Hour), Events: []Event{
				{Op: OpJoin, At: 0, ID: "r-0", Config: osSpec("linux", "1"), Power: 1}, ev,
			}}
			want := prefix + tc.want
			if strings.Contains(want, "%s") {
				want = fmt.Sprintf(want, op)
			}
			if err := tl.Validate(); err == nil || err.Error() != want {
				t.Errorf("%s %s: error %v, want %q", op, tc.name, err, want)
			}
		}
	}

	files, err := filepath.Glob("testdata/library-live/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no library timelines: %v", err)
	}
	for _, path := range append(files, "testdata/golden-timeline.json") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseTimeline(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestGoldenTimeline pins the committed replay artifact: it is exactly
// partition-flap #0 at seed 42 (so the generator cannot drift away from
// it silently), it round-trips byte-for-byte, and it runs clean under the
// default invariants. CI replays the same file through the CLI.
func TestGoldenTimeline(t *testing.T) {
	path := filepath.Join("testdata", "golden-timeline.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := ParseTimeline(data)
	if err != nil {
		t.Fatal(err)
	}
	remarshaled, err := tl.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, remarshaled) {
		t.Error("golden timeline does not round-trip byte-for-byte")
	}
	p, _ := LookupProfile("partition-flap")
	generated, err := p.Generate(42, 0).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, generated) {
		t.Error("golden timeline drifted from partition-flap #0 at seed 42; regenerate with: scenarios gen -profile partition-flap -seed 42 -index 0 -out internal/scenario/testdata/golden-timeline.json")
	}
	_, violations, err := CheckRun(tl.Def(), 42, DefaultInvariants())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("golden timeline violates %s at seq %d: %s", v.Invariant, v.Seq, v.Detail)
	}
}

// FuzzParseTimeline feeds ParseTimeline, which reads files an operator
// hands the CLI, arbitrary bytes: it must reject or accept without
// panicking, and whatever it accepts re-marshals to a fixed point — the
// canonical artifact — that parses back to an equal timeline. Seeded from
// the committed golden timelines, the every-op test timeline, one generated
// timeline per profile (lossy-wire's carries a Live block and FaultSpecs)
// and the eleven library timelines — the six analytic ones built here at
// seed 42 (committee-rotation's is the seed with rotate events), the five
// live ones from the files internal/liveloop's round-trip test keeps equal
// to its library (the seeds with attack, reactive, targets). Every seed must
// parse. The generated seeds are 5–15 kB: run it with -fuzzminimizetime 1s
// or minimizing them eats the budget.
func FuzzParseTimeline(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden timelines: %v", err)
	}
	live, err := filepath.Glob(filepath.Join("testdata", "library-live", "*.json"))
	if err != nil || len(live) != 5 {
		f.Fatalf("want the 5 live library timelines, have %d: %v", len(live), err)
	}
	seeds := []*Timeline{fullGrammarTimeline()} // small: cheap to mutate and to minimize
	for _, p := range Profiles() {
		seeds = append(seeds, p.Generate(42, 0))
	}
	for _, def := range All() {
		seeds = append(seeds, def.TimelineAt(42))
	}
	n := 0
	add := func(data []byte, err error) {
		if err == nil {
			_, err = ParseTimeline(data)
		}
		if err != nil {
			f.Fatalf("seed#%d: %v", n, err)
		}
		f.Add(data)
		n++
	}
	for _, path := range golden {
		add(os.ReadFile(path))
	}
	for _, tl := range seeds {
		add(tl.MarshalIndent())
	}
	for _, path := range live {
		add(os.ReadFile(path))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := ParseTimeline(data)
		if err != nil {
			return
		}
		canonical, err := tl.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted timeline does not marshal: %v", err)
		}
		again, err := ParseTimeline(canonical)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canonical)
		}
		if second, err := again.MarshalIndent(); err != nil || !bytes.Equal(canonical, second) {
			t.Fatalf("canonical form is not a fixed point (%v):\n%s\nthen\n%s", err, canonical, second)
		}
		// Clone maps an empty list and an absent one to the same value, as
		// the encoding does.
		if !reflect.DeepEqual(tl.Clone(), again.Clone()) {
			t.Fatalf("canonical form parses to a different timeline:\n%s\nfrom\n%s", canonical, data)
		}
	})
}

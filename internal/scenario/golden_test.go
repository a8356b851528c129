package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
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
// and the eleven library timelines built at seed 42 — committee-rotation's
// is the seed with rotate events, the five live ones those with attack,
// reactive and targets. Every seed must parse, and the count is pinned so a
// profile or library timeline cannot drop out unnoticed. The generated seeds
// are 5–15 kB: run it with -fuzzminimizetime 1s or minimizing them eats the
// budget.
func FuzzParseTimeline(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden timelines: %v", err)
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
	if n != 18 {
		f.Fatalf("%d seeds, want 18", n)
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

var update = flag.Bool("update", false, "rewrite testdata/library_traces.golden from this build")

// TestLibraryTracesGolden pins every registered scenario's trace — the six
// analytic ones and the five live ones — at base seeds 42 and 7: the record
// count and the SHA-256 of the JSONL bytes cmd/scenarios run -json prints. A change to what a library scenario does has to show up
// as a diff of the golden file (go test -update), never silently.
func TestLibraryTracesGolden(t *testing.T) {
	path := filepath.Join("testdata", "library_traces.golden")
	var got bytes.Buffer
	for _, def := range All() {
		for _, seed := range []int64{42, 7} {
			res, err := Run(def, seed)
			if err != nil {
				t.Fatalf("%s @ %d: %v", def.Name, seed, err)
			}
			fmt.Fprintf(&got, "%s seed=%d records=%d sha256=%x\n",
				def.Name, seed, len(res.Records), sha256.Sum256([]byte(mustTraceJSON(t, res))))
		}
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("library traces drifted from %s (rewrite with -update and review the diff)\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}

// TestLibraryTimelinesRoundTrip: every registered scenario is a timeline
// that survives its own serialization — built at the seed, marshalled,
// parsed back (so it validates) and run, it gives the trace the registered
// def gives, byte for byte. That is what lets replay, the shrinker and any
// later mutator reach the library.
func TestLibraryTimelinesRoundTrip(t *testing.T) {
	for _, def := range All() {
		for _, seed := range []int64{42, 7} {
			data, err := def.TimelineAt(seed).MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseTimeline(data)
			if err != nil {
				t.Fatalf("%s @ %d: %v", def.Name, seed, err)
			}
			want, err := Run(def, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(parsed.Def(), seed)
			if err != nil {
				t.Fatalf("%s @ %d from JSON: %v", def.Name, seed, err)
			}
			if mustTraceJSON(t, got) != mustTraceJSON(t, want) {
				t.Errorf("%s @ %d: the timeline's JSON replays a different trace than the def", def.Name, seed)
			}
		}
	}
}

package scenario

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestGenerateDeterministic: (profile, seed, index) is a pure address — the
// same triple yields byte-identical timeline JSON, and moving any coordinate
// yields a different timeline.
func TestGenerateDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		a, err := p.Generate(42, 3).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Generate(42, 3).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same (seed, index) generated different timelines", p.Name)
		}
		c, err := p.Generate(42, 4).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: index 3 and 4 generated identical events", p.Name)
		}
		d, err := p.Generate(43, 3).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, d) {
			t.Errorf("%s: seeds 42 and 43 generated identical events", p.Name)
		}
	}
}

// TestNothingGeneratedCarriesStrayOperands: the per-op operand table
// (opOperands) rejects nothing this repo produces — timelines 0–39 of every
// profile at seed 42, and every candidate the shrinker tries on the timeline
// CI shrinks (the committed golden timeline and the every-op test timeline
// are parsed by their own tests).
func TestNothingGeneratedCarriesStrayOperands(t *testing.T) {
	for _, p := range Profiles() {
		for index := 0; index < 40; index++ {
			if err := p.Generate(42, index).Validate(); err != nil {
				t.Errorf("%s index %d: %v", p.Name, index, err)
			}
		}
	}
	p, _ := LookupProfile("disclosure-storm")
	s := &shrinker{seed: 42, target: NeverUnsafe()}
	if _, err := s.shrink(p.Generate(42, 0)); err != nil {
		t.Fatal(err)
	}
	if s.runs == 0 || s.invalid != 0 {
		t.Errorf("Validate rejected %d of the shrinker's %d candidates", s.invalid, s.runs)
	}
}

// TestGeneratedTimelinesRunClean: the first few timelines of every profile
// validate (Generate panics otherwise), run without error, and satisfy the
// default invariants — the sweep's acceptance bar, in miniature.
func TestGeneratedTimelinesRunClean(t *testing.T) {
	for _, p := range Profiles() {
		for index := 0; index < 3; index++ {
			tl := p.Generate(42, index)
			if len(tl.Events) == 0 {
				t.Fatalf("%s index %d: empty timeline", p.Name, index)
			}
			_, violations, err := CheckRun(tl.Def(), 42, DefaultInvariants())
			if err != nil {
				t.Fatalf("%s index %d: %v", p.Name, index, err)
			}
			for _, v := range violations {
				t.Errorf("%s index %d violates %s at seq %d: %s", p.Name, index, v.Invariant, v.Seq, v.Detail)
			}
		}
	}
}

// TestDisclosureStormStaysInsideHorizon: sixteen gaps of up to 29h from day
// one can overrun the 15-day horizon, and Generate used to panic on the
// invalid timeline. The two addresses are the ones `scenarios sweep -n 500
// -seed 2006` and `-n 3000 -seed 10` (four analytic profiles) tripped over:
// the storm must stop at the horizon, and the timeline must run clean.
func TestDisclosureStormStaysInsideHorizon(t *testing.T) {
	p, ok := LookupProfile("disclosure-storm")
	if !ok {
		t.Fatal("disclosure-storm profile missing")
	}
	for _, addr := range []struct {
		seed  int64
		index int
	}{{2006, 30}, {10, 636}} {
		tl := p.Generate(addr.seed, addr.index) // panics on an invalid timeline
		disclosures := 0
		for _, ev := range tl.Events {
			if ev.Op == OpDisclose {
				disclosures++
			}
		}
		if disclosures < 8 {
			t.Errorf("seed %d index %d: %d disclosures, the storm was cut short of its minimum", addr.seed, addr.index, disclosures)
		}
		_, violations, err := CheckRun(tl.Def(), addr.seed, DefaultInvariants())
		if err != nil {
			t.Fatalf("seed %d index %d: %v", addr.seed, addr.index, err)
		}
		for _, v := range violations {
			t.Errorf("seed %d index %d violates %s at seq %d: %s", addr.seed, addr.index, v.Invariant, v.Seq, v.Detail)
		}
	}
}

// TestGeneratedReplayByteIdentical: a generated timeline's trace depends
// only on (profile, seed, index) — replaying it serially and replaying four
// copies concurrently produce the same bytes. This is the library-level
// form of the CLI determinism contract across -parallel settings.
func TestGeneratedReplayByteIdentical(t *testing.T) {
	p, ok := LookupProfile("partition-flap")
	if !ok {
		t.Fatal("partition-flap profile missing")
	}
	tl := p.Generate(42, 0)
	res, err := Run(tl.Def(), 42)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTraceJSON(t, res)

	traces := make([]string, 4)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Regenerate inside the goroutine: the full address -> bytes
			// path must be race-free and scheduling-independent.
			res, err := Run(p.Generate(42, 0).Def(), 42)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = mustTraceJSON(t, res)
		}(i)
	}
	wg.Wait()
	for i, got := range traces {
		if got != want {
			t.Fatalf("concurrent replay %d diverged from serial trace", i)
		}
	}
}

// TestGeneratedNamesEncodeAddress: the timeline name carries (profile, seed,
// index) so a violating run in a report can be regenerated from its name
// alone.
func TestGeneratedNamesEncodeAddress(t *testing.T) {
	p := Profiles()[0]
	tl := p.Generate(7, 12)
	for _, part := range []string{p.Name, "7", "0012"} {
		if !strings.Contains(tl.Name, part) {
			t.Errorf("name %q missing %q", tl.Name, part)
		}
	}
	if !strings.Contains(strings.Join(tl.Tags, ","), "generated") {
		t.Errorf("tags %v missing 'generated'", tl.Tags)
	}
}

package liveloop

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the files under testdata from this build")

// TestLibraryTracesGolden pins every registered scenario's trace — the six
// analytic ones and this package's five live ones, which is why the test
// sits here, where both halves of the library are linked — at base seeds 42
// and 7: the record count and the SHA-256 of the JSONL bytes cmd/scenarios
// run -json prints. A change to what a library scenario does has to show up
// as a diff of the golden file (go test -update), never silently.
func TestLibraryTracesGolden(t *testing.T) {
	path := filepath.Join("testdata", "library_traces.golden")
	var got bytes.Buffer
	for _, def := range scenario.All() {
		for _, seed := range []int64{42, 7} {
			res, err := scenario.Run(def, seed)
			if err != nil {
				t.Fatalf("%s @ %d: %v", def.Name, seed, err)
			}
			fmt.Fprintf(&got, "%s seed=%d records=%d sha256=%x\n",
				def.Name, seed, len(res.Records), sha256.Sum256([]byte(traceJSON(t, res))))
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
// later mutator reach the library. The five live timelines are also kept as
// files under internal/scenario/testdata/library-live, where
// FuzzParseTimeline (which cannot link this package) reads them as seeds;
// -update rewrites them.
func TestLibraryTimelinesRoundTrip(t *testing.T) {
	for _, def := range scenario.All() {
		for _, seed := range []int64{42, 7} {
			data, err := def.TimelineAt(seed).MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := scenario.ParseTimeline(data)
			if err != nil {
				t.Fatalf("%s @ %d: %v", def.Name, seed, err)
			}
			want, err := scenario.Run(def, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := scenario.Run(parsed.Def(), seed)
			if err != nil {
				t.Fatalf("%s @ %d from JSON: %v", def.Name, seed, err)
			}
			if traceJSON(t, got) != traceJSON(t, want) {
				t.Errorf("%s @ %d: the timeline's JSON replays a different trace than the def", def.Name, seed)
			}
			if parsed.Live == nil || seed != 42 {
				continue
			}
			path := filepath.Join("..", "scenario", "testdata", "library-live", def.Name+".json")
			if *update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, data) {
				t.Errorf("%s drifted from the library (%v); rewrite with -update", path, err)
			}
		}
	}
}

package experiment

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_tables.golden from this build")

// goldenIDs are the tables that reproduce the paper's own claims, plus the
// two that demonstrate its Sec. II-C condition on a running BFT cluster.
var goldenIDs = []string{"F1", "T1", "P1", "P2", "P3", "D12", "SEC2C", "X1", "X6"}

// TestGoldenPaperTables pins the rendered paper tables byte for byte, in
// the framing cmd/experiments prints, at the parameters CI's determinism
// job uses. A change to the numbers is a change to the reproduction: it
// has to show up as a diff of the golden file (go test -update), never
// silently. Workers 0 and 4 must both give the committed bytes.
func TestGoldenPaperTables(t *testing.T) {
	path := filepath.Join("testdata", "paper_tables.golden")
	for _, workers := range []int{0, 4} {
		var got bytes.Buffer
		for _, id := range goldenIDs {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %s is not registered", id)
			}
			tab, _, err := e.Run(context.Background(), Params{Seed: 7, Trials: 2000, Scale: 200, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			fmt.Fprintf(&got, "[%s]\n%s\n", e.ID, tab.String())
		}
		if *update && workers == 0 {
			// Written once; the second worker count checks what was written.
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("workers=%d: paper tables drifted from %s (rewrite with -update and review the diff)\ngot:\n%s", workers, path, got.String())
		}
	}
}

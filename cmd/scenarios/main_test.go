package main

import (
	"context"
	"encoding/csv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestSelectDefs(t *testing.T) {
	all, err := selectDefs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(scenario.All()) {
		t.Fatalf("all selected %d of %d", len(all), len(scenario.All()))
	}
	subset, err := selectDefs("committee-rotation, flash-churn, flash-churn")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "committee-rotation" || subset[1].Name != "flash-churn" {
		t.Fatalf("subset selection wrong: %+v", subset)
	}
	if _, err := selectDefs("nope"); err == nil || !strings.Contains(err.Error(), "available:") {
		t.Fatalf("unknown name error unhelpful: %v", err)
	}
	if _, err := selectDefs(" , "); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// TestOutputDeterminismAcrossParallel is the in-process version of the CI
// determinism gate: run -seed 42 renders byte-identically for serial
// and parallel execution, in JSON, CSV and summary modes.
func TestOutputDeterminismAcrossParallel(t *testing.T) {
	defs, err := selectDefs("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []renderMode{modeJSON, modeCSV, modeSummary} {
		serialRes, err := runAll(context.Background(), defs, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := render(serialRes, mode)
		if err != nil {
			t.Fatal(err)
		}
		parallelRes, err := runAll(context.Background(), defs, 42, 4)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := render(parallelRes, mode)
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Errorf("mode %d output differs between -parallel 1 and -parallel 4", mode)
		}
		if len(serial) == 0 {
			t.Errorf("mode %d produced no output", mode)
		}
	}
}

// An interrupt mid-run keeps the finished prefix and starts nothing more:
// scenario k's build cancels the run, and the scenarios after it wait for
// that cancel, so with two workers at most k+1 are in flight when it lands.
func TestRunAllKeepsThePrefixWhenCancelled(t *testing.T) {
	const workers = 2
	defs := filterTag(scenario.All(), "vuln")
	for k := 0; k < 3; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cut := make([]scenario.Def, len(defs))
		for i, d := range defs {
			build := d.Build
			d.Build = func(rng *rand.Rand) *scenario.Timeline {
				if i == k {
					cancel()
				}
				if i > k {
					<-ctx.Done()
				}
				return build(rng)
			}
			cut[i] = d
		}
		results, err := runAll(ctx, cut, 42, workers)
		cancel()
		if err != nil || len(results) != len(defs) {
			t.Fatalf("k=%d: %d results, err %v; want %d slots and no error", k, len(results), err, len(defs))
		}
		for i, res := range results {
			if i <= k && res == nil {
				t.Errorf("k=%d: scenario %d was started before the cancel but has no result", k, i)
			}
			if i > 0 && res != nil && results[i-1] == nil {
				t.Errorf("k=%d: scenario %d finished after a gap; the finished scenarios are not a prefix", k, i)
			}
			if i >= k+workers && res != nil {
				t.Errorf("k=%d: scenario %d started after the cancel", k, i)
			}
		}
	}
}

// An interrupt is reported only when it cost a scenario. Cancelling in
// the last scenario's build lands after every scenario has been handed
// out, so all of them finish: the full output and no error. Cancelling in
// the first one's build on one worker leaves the rest unrun: the first
// trace and the interrupt.
func TestRunReportsAnInterruptOnlyWhenWorkIsLost(t *testing.T) {
	defs := filterTag(scenario.All(), "vuln")
	full, err := runRendered(context.Background(), defs, 42, 1, modeJSON)
	if err != nil {
		t.Fatal(err)
	}
	first, err := runRendered(context.Background(), defs[:1], 42, 1, modeJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cancelAt, workers int
		want              string
		wantErr           bool
	}{
		{len(defs) - 1, 1, full, false},
		{len(defs) - 1, 2, full, false},
		{0, 1, first, true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cut := slices.Clone(defs)
		build := cut[tc.cancelAt].Build
		cut[tc.cancelAt].Build = func(rng *rand.Rand) *scenario.Timeline {
			cancel()
			return build(rng)
		}
		out, err := runRendered(ctx, cut, 42, tc.workers, modeJSON)
		cancel()
		if (err != nil) != tc.wantErr {
			t.Errorf("cancel at %d on %d workers: err %v, want an error: %v", tc.cancelAt, tc.workers, err, tc.wantErr)
		}
		if out != tc.want {
			t.Errorf("cancel at %d on %d workers: output differs from the scenarios that completed", tc.cancelAt, tc.workers)
		}
	}
}

func TestCSVOutputParsesBack(t *testing.T) {
	defs, err := selectDefs("zero-day-under-partition")
	if err != nil {
		t.Fatal(err)
	}
	results, err := runAll(context.Background(), defs, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := render(results, modeCSV)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not parse back: %v", err)
	}
	if len(rows) != len(results[0].Records)+1 {
		t.Fatalf("CSV has %d rows, want %d records + header", len(rows), len(results[0].Records))
	}
	if got, want := len(rows[0]), len(scenario.CSVHeader()); got != want {
		t.Fatalf("header has %d columns, want %d", got, want)
	}
}

func TestListTable(t *testing.T) {
	out := listTable().String()
	for _, name := range scenario.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("list output missing %s", name)
		}
	}
}

// TestSweepWritesProfiles: sweep -cpuprofile / -memprofile write both
// profiles beside the report.
func TestSweepWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmdSweep([]string{"-n", "4", "-seed", "42", "-profiles", "churn-heavy", "-out", filepath.Join(dir, "report.json"),
		"-cpuprofile", cpu, "-memprofile", mem})
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, %v", filepath.Base(path), fi, err)
		}
	}
}

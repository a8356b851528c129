package main

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"

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

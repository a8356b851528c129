package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestSelectExperimentsAll(t *testing.T) {
	got, err := selectExperiments("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experiment.IDs()) {
		t.Fatalf("selected %d, want all %d", len(got), len(experiment.IDs()))
	}
}

func TestSelectExperimentsOnly(t *testing.T) {
	got, err := selectExperiments("f1, T1,F1", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "F1" || got[1].ID != "T1" {
		t.Fatalf("selection = %+v, want [F1 T1] (case-folded, deduplicated)", got)
	}
}

func TestSelectExperimentsRejectsUnknownID(t *testing.T) {
	_, err := selectExperiments("F1,NOPE", "")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "NOPE") {
		t.Fatalf("error does not name the bad id: %v", err)
	}
	// The error must print the available ids so the user can recover.
	for _, id := range []string{"F1", "CHURN", "X6"} {
		if !strings.Contains(msg, id) {
			t.Fatalf("error does not list available id %s: %v", id, err)
		}
	}
}

func TestSelectExperimentsTagFilter(t *testing.T) {
	got, err := selectExperiments("", "mitigation")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("mitigation tag selected nothing")
	}
	for _, e := range got {
		if !e.HasTag("mitigation") {
			t.Fatalf("%s selected without the tag", e.ID)
		}
	}
	if _, err := selectExperiments("", "no-such-tag"); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// -only must stay inside the tag filter.
	if _, err := selectExperiments("F1", "mitigation"); err == nil {
		t.Fatal("-only outside -tag accepted")
	}
}

func TestListTableEnumeratesRegistry(t *testing.T) {
	out := listTable().String()
	for _, id := range experiment.IDs() {
		if !strings.Contains(out, id) {
			t.Fatalf("-list output misses %s", id)
		}
	}
}

// Acceptance: a -parallel run must print byte-identical output to a
// serial run with the same parameters, Monte Carlo experiments included.
func TestParallelOutputByteIdenticalToSerial(t *testing.T) {
	selected, err := selectExperiments("F1,X4,M1,CHURN", "")
	if err != nil {
		t.Fatal(err)
	}
	p := experiment.Params{Seed: 7, Trials: 2000, Scale: 100, Workers: 8}
	serialParams := p
	serialParams.Workers = 1
	run := func(params experiment.Params, workers int) []experiment.Result {
		var out []experiment.Result
		if err := experiment.RunConcurrent(context.Background(), selected, params, workers, func(res experiment.Result) {
			out = append(out, res)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := run(serialParams, 1), run(p, 8)
	if len(serial) != len(selected) || len(parallel) != len(selected) {
		t.Fatalf("emitted %d / %d results, want %d", len(serial), len(parallel), len(selected))
	}
	for _, markdown := range []bool{false, true} {
		for i := range serial {
			if render(serial[i], markdown) != render(parallel[i], markdown) {
				t.Fatalf("%s: parallel output differs from serial (markdown=%v)", selected[i].ID, markdown)
			}
		}
	}
}

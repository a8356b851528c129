package experiment

import (
	"context"
	"testing"

	"repro/internal/pooldata"
)

// catalogIDs is the canonical experiment index, in the order
// cmd/experiments -list prints it; the registry must list exactly these,
// each exactly once.
var catalogIDs = []string{
	"F1", "T1", "P1", "P2", "P3", "D12", "X1", "X2", "X4", "X5",
	"SEC2C", "ADV", "ABL", "M1", "M2", "M3", "CHURN", "PLAN", "M4", "X6", "NT",
}

func TestRegistryListsEveryExperimentExactlyOnce(t *testing.T) {
	ids := IDs()
	if len(ids) != len(catalogIDs) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(catalogIDs), ids)
	}
	seen := make(map[string]int)
	for _, id := range ids {
		seen[id]++
	}
	for _, want := range catalogIDs {
		if seen[want] != 1 {
			t.Fatalf("id %s registered %d times, want exactly once", want, seen[want])
		}
	}
	// All() and IDs() agree, and every entry is well-formed.
	for i, e := range All() {
		if e.ID != ids[i] {
			t.Fatalf("All()[%d].ID = %s, IDs()[%d] = %s", i, e.ID, i, ids[i])
		}
		if e.Title == "" || e.Run == nil || len(e.Tags) == 0 {
			t.Fatalf("experiment %s incompletely registered: %+v", e.ID, e)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, id := range []string{"F1", "f1", " f1 "} {
		e, ok := Lookup(id)
		if !ok || e.ID != "F1" {
			t.Fatalf("Lookup(%q) = %+v, %v", id, e, ok)
		}
	}
	if _, ok := Lookup("NOPE"); ok {
		t.Fatal("Lookup accepted an unknown id")
	}
}

func TestRegistryTags(t *testing.T) {
	paper := WithTag("paper")
	if len(paper) == 0 {
		t.Fatal("no experiments tagged paper")
	}
	for _, e := range paper {
		if !e.HasTag("PAPER") {
			t.Fatalf("%s lost its tag under case folding", e.ID)
		}
	}
	if len(WithTag("no-such-tag")) != 0 {
		t.Fatal("unknown tag matched experiments")
	}
	if len(Tags()) < 3 {
		t.Fatalf("tag vocabulary too small: %v", Tags())
	}
}

func TestRegistryRunHonoursContextAndParams(t *testing.T) {
	e, ok := Lookup("T1")
	if !ok {
		t.Fatal("T1 not registered")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Run(cancelled, DefaultParams()); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if _, _, err := e.Run(context.Background(), Params{Seed: 1, Trials: 0, Scale: 1}); err == nil {
		t.Fatal("zero trials accepted")
	}
	tab, _, err := e.Run(context.Background(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil {
		t.Fatal("T1 returned no table")
	}
}

// TestRegistryRunsCheapEntries smoke-runs the fast structured-result
// experiments through the registry path and checks their typed rows come
// back intact.
func TestRegistryRunsCheapEntries(t *testing.T) {
	p := Params{Seed: 7, Trials: 200, Scale: 50}
	f1, _ := Lookup("F1")
	_, rows, err := f1.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if pts, ok := rows.([]pooldata.Figure1Point); !ok || len(pts) != p.Scale {
		t.Fatalf("F1 rows = %T (len?), want []pooldata.Figure1Point of %d", rows, p.Scale)
	}
	x2, _ := Lookup("X2")
	_, rows, err = x2.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows.([]TwoTierRow); !ok {
		t.Fatalf("X2 rows have type %T, want []TwoTierRow", rows)
	}
}

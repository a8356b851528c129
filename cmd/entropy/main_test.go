package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "weights.csv")
	content := "pool-a,40\npool-b,35\npool-a,10\npool-c,15\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := loadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate labels accumulate.
	if d.Weight("pool-a") != 50 {
		t.Fatalf("pool-a = %v, want 50", d.Weight("pool-a"))
	}
	if d.Support() != 3 {
		t.Fatalf("support = %d", d.Support())
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := loadCSV("/nonexistent/file.csv"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("a,notanumber\n"), 0o600)
	if _, err := loadCSV(bad); err == nil {
		t.Fatal("bad weight accepted")
	}
	wide := filepath.Join(dir, "wide.csv")
	os.WriteFile(wide, []byte("a,1,extra\n"), 0o600)
	if _, err := loadCSV(wide); err == nil {
		t.Fatal("3-column row accepted")
	}
	neg := filepath.Join(dir, "neg.csv")
	os.WriteFile(neg, []byte("a,-5\n"), 0o600)
	if _, err := loadCSV(neg); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Each weight becomes units of 1e-9 (vuln.PowerUnits): what does not
	// convert is refused, and the error names the row's label.
	for name, row := range map[string]string{
		"rounds to 0 units": "pool-tiny,1e-12",
		"past the ceiling":  "pool-huge,1e10",
		"NaN":               "pool-nan,NaN",
	} {
		path := filepath.Join(dir, "row.csv")
		os.WriteFile(path, []byte("pool-a,40\n"+row+"\n"), 0o600)
		label, _, _ := strings.Cut(row, ",")
		if _, err := loadCSV(path); err == nil || !strings.Contains(err.Error(), label) {
			t.Errorf("%s row %q: error %v, want a refusal naming %s", name, row, err, label)
		}
	}
}

func TestChooseDistribution(t *testing.T) {
	d, name, err := chooseDistribution("", 0, 0)
	if err != nil || !strings.Contains(name, "snapshot") {
		t.Fatalf("default: %v %q", err, name)
	}
	if d.Support() != 17 {
		t.Fatalf("snapshot support = %d", d.Support())
	}
	d, _, err = chooseDistribution("", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := d.Entropy()
	if math.Abs(h-3) > 1e-12 {
		t.Fatalf("uniform-8 entropy = %v", h)
	}
	d, _, err = chooseDistribution("", 101, 0)
	if err != nil || d.Support() != 118 {
		t.Fatalf("tail: %v support=%d", err, d.Support())
	}
	if _, _, err := chooseDistribution("/nonexistent.csv", 0, 0); err == nil {
		t.Fatal("bad csv path accepted")
	}
}

func TestPrintReport(t *testing.T) {
	d, _, err := chooseDistribution("", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := printReport(&sb, "uniform-4", d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"entropy (bits)", "2", "κ-optimal (Definition 1)", "top configurations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
